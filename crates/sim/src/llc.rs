//! The shared last-level cache with per-generation sharing bookkeeping.
//!
//! A *generation* is the residency of one block from its fill into the LLC
//! until its eviction (or the end-of-simulation flush). The paper's whole
//! characterization is phrased over generations: a generation is **shared**
//! if demand accesses from at least two distinct cores touch it, and
//! **private** otherwise. The LLC tracks, per line, the sharer bit-vector,
//! the writer bit-vector, hit counts and fill metadata, and reports a
//! [`GenerationEnd`] record to the replacement policy and to any registered
//! observer whenever a generation ends.

use crate::addr::{AccessKind, BlockAddr, CoreId, Pc};
use crate::config::CacheConfig;
use crate::replace::{AccessCtx, Aux, AuxProvider, LineView, ReplacementPolicy, SetView};
use crate::stats::LlcStats;

/// Why a generation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictCause {
    /// Replaced by a demand fill.
    Replacement,
    /// Flushed at the end of the simulation (the generation was still live;
    /// its statistics are complete but its lifetime is truncated).
    Flush,
}

/// Complete record of one finished LLC generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationEnd {
    /// The block whose residency ended.
    pub block: BlockAddr,
    /// Set the block lived in.
    pub set: usize,
    /// PC of the instruction whose miss filled the block.
    pub fill_pc: Pc,
    /// Core whose miss filled the block.
    pub fill_core: CoreId,
    /// LLC-access index of the fill.
    pub fill_time: u64,
    /// LLC-access index at which the generation ended.
    pub end_time: u64,
    /// Bit-vector of distinct cores that touched the block while resident
    /// (always includes the filler).
    pub sharer_mask: u32,
    /// Bit-vector of distinct cores that wrote the block while resident.
    pub writer_mask: u32,
    /// Demand hits received during the residency (the fill itself is not a
    /// hit).
    pub hits: u32,
    /// Demand hits issued by cores other than the filler.
    pub hits_by_non_filler: u32,
    /// Stores observed during the residency (including a store that caused
    /// the fill).
    pub writes: u32,
    /// Why the generation ended.
    pub cause: EvictCause,
}

impl GenerationEnd {
    /// Number of distinct cores that touched the block.
    pub fn sharer_count(&self) -> u32 {
        self.sharer_mask.count_ones()
    }

    /// `true` if ≥ 2 distinct cores touched the block during the residency
    /// — the paper's definition of a *shared* generation.
    pub fn is_shared(&self) -> bool {
        self.sharer_count() >= 2
    }

    /// `true` for a shared generation that was never written.
    pub fn is_read_only_shared(&self) -> bool {
        self.is_shared() && self.writes == 0
    }

    /// `true` for a shared generation that was written at least once.
    pub fn is_read_write_shared(&self) -> bool {
        self.is_shared() && self.writes > 0
    }

    /// Residency length in LLC accesses.
    pub fn lifetime(&self) -> u64 {
        self.end_time - self.fill_time
    }
}

/// Observer of LLC events; the characterization passes, predictors and the
/// experiment runner implement this.
///
/// All methods default to no-ops so observers only override what they need.
pub trait LlcObserver {
    /// A demand access hit `(set, way)`. `gen` describes the generation
    /// *after* the hit has been accounted (sharer mask updated, hit counts
    /// incremented); `was_new_sharer` says whether this access added a new
    /// core to the sharer set.
    fn on_hit(&mut self, ctx: &AccessCtx, live: &LiveGeneration, was_new_sharer: bool) {
        let _ = (ctx, live, was_new_sharer);
    }

    /// A demand miss is about to fill `block` (after any victim has been
    /// reported via [`LlcObserver::on_generation_end`]).
    fn on_fill(&mut self, ctx: &AccessCtx) {
        let _ = ctx;
    }

    /// A generation ended (replacement or flush).
    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        let _ = gen;
    }

    /// `core` wrote `block` while holding it in a private cache (a MESI
    /// upgrade): no LLC demand access happened, but the resident line's
    /// sharer/writer bookkeeping was updated via
    /// [`Llc::note_upgrade`](crate::Llc::note_upgrade). Stream recorders
    /// must capture these to replay the LLC bit-identically.
    fn on_upgrade(&mut self, block: BlockAddr, core: CoreId) {
        let _ = (block, core);
    }
}

/// A no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl LlcObserver for NullObserver {}

/// Fans one event stream out to several observers.
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn LlcObserver>,
}

impl<'a> MultiObserver<'a> {
    /// Creates a fan-out observer over `observers`.
    pub fn new(observers: Vec<&'a mut dyn LlcObserver>) -> Self {
        MultiObserver { observers }
    }
}

impl std::fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObserver")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl LlcObserver for MultiObserver<'_> {
    fn on_hit(&mut self, ctx: &AccessCtx, live: &LiveGeneration, was_new_sharer: bool) {
        for o in &mut self.observers {
            o.on_hit(ctx, live, was_new_sharer);
        }
    }
    fn on_fill(&mut self, ctx: &AccessCtx) {
        for o in &mut self.observers {
            o.on_fill(ctx);
        }
    }
    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        for o in &mut self.observers {
            o.on_generation_end(gen);
        }
    }
    fn on_upgrade(&mut self, block: BlockAddr, core: CoreId) {
        for o in &mut self.observers {
            o.on_upgrade(block, core);
        }
    }
}

/// Snapshot of a still-live generation, exposed to observers on hits.
#[derive(Debug, Clone, Copy)]
pub struct LiveGeneration {
    /// The resident block.
    pub block: BlockAddr,
    /// Sharer bit-vector so far (after the current access).
    pub sharer_mask: u32,
    /// Writer bit-vector so far.
    pub writer_mask: u32,
    /// Hits so far (including the current one).
    pub hits: u32,
    /// Core that filled the line.
    pub fill_core: CoreId,
    /// LLC-access index of the fill.
    pub fill_time: u64,
}

impl LiveGeneration {
    /// `true` if ≥ 2 distinct cores have touched the block *so far*.
    pub fn is_shared_so_far(&self) -> bool {
        self.sharer_mask.count_ones() >= 2
    }
}

/// Per-line sharing bookkeeping and fill metadata, kept as one record per
/// line (see the [`Llc`] storage-layout notes).
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    sharer_mask: u32,
    writer_mask: u32,
    hits: u32,
    hits_by_non_filler: u32,
    writes: u32,
    fill_core: CoreId,
    fill_pc: Pc,
    fill_time: u64,
}

/// Result of a demand access to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Block evicted to make room for the fill (misses to full sets only).
    /// In inclusive mode the hierarchy back-invalidates private copies of
    /// this block.
    pub victim: Option<BlockAddr>,
}

/// The shared last-level cache, generic over its replacement policy.
///
/// An `Llc` normally covers every set of the configured geometry, but it can
/// also be constructed over a contiguous *set range* (see
/// [`Llc::new_range`]): line storage then covers only `[set_base,
/// set_base + set_len)` while set indexing, tag extraction and block
/// reconstruction keep using the full geometry, so a set-range `Llc` is
/// bit-identical to the corresponding slice of a full one. The sharded
/// replay path in `llc-core` is built on this.
///
/// # Storage layout
///
/// Line state is split by access pattern, indexed by `(set - set_base) *
/// ways + way`:
///
/// * **probe planes** — `tags` (one contiguous `u64` row per set; a
///   16-way set is exactly two cache lines) and a per-set `u64` `valid`
///   bitmask. These are the only state the resident-line scan reads, and
///   the scan compiles to a branchless, SIMD-friendly compare-to-mask
///   over the tag row.
/// * **bookkeeping plane** — one `LineMeta` record per line holding the
///   sharing masks, hit/write counters and fill metadata. These fields
///   are always read and written *together* (on a hit, a fill or a
///   generation end), so they stay struct-grouped: one meta record is one
///   cache-line touch, where a field-per-plane split costs six scattered
///   ones per access (measured slower than the old array-of-structs
///   layout it replaced — see DESIGN.md §15).
pub struct Llc<P> {
    /// Total sets in the *full* geometry (used for set/tag arithmetic even
    /// when this instance only stores a sub-range).
    sets: u64,
    /// First set covered by the line planes.
    set_base: u64,
    /// Number of consecutive sets covered by the line planes.
    set_len: u64,
    ways: usize,
    /// Probe plane: the tag of each way. Stale values of evicted lines
    /// stay in place and are masked out by `valid`.
    tags: Vec<u64>,
    /// Per-set valid bitmask (bit `w` set ⇒ way `w` holds a live line).
    valid: Vec<u64>,
    /// Bookkeeping plane: per-generation sharing state and fill metadata.
    meta: Vec<LineMeta>,
    /// Reusable victim-view buffer (one entry per way), filled on misses
    /// to full sets before consulting the policy.
    view_buf: Vec<LineView>,
    policy: P,
    /// Offline side-channel, absent for realistic policies so the hot loop
    /// skips the virtual call entirely.
    aux: Option<Box<dyn AuxProvider>>,
    time: u64,
    stats: LlcStats,
    /// `log2(sets)`, for rebuilding block addresses from `(tag, set)`
    /// without a multiply.
    set_shift: u32,
    /// All-ways victim-candidate mask, fixed by the associativity.
    full_mask: u64,
}

impl<P: ReplacementPolicy> Llc<P> {
    /// Creates an empty LLC with the given geometry and policy.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the width of the victim
    /// candidate mask).
    pub fn new(config: CacheConfig, policy: P) -> Self {
        let sets = config.sets();
        Self::new_range(config, policy, 0, sets)
    }

    /// Creates an empty LLC covering only sets `[set_base, set_base +
    /// set_len)` of the full geometry.
    ///
    /// Set-index and tag arithmetic still use the *full* set count, so a
    /// block maps to the same `(set, tag)` pair as in a full LLC; only line
    /// storage is restricted. Accessing a block outside the range is a
    /// logic error (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64, if the range is empty, or if
    /// it extends past the last set.
    pub fn new_range(config: CacheConfig, policy: P, set_base: u64, set_len: u64) -> Self {
        assert!(config.ways <= 64, "associativity above 64 is unsupported");
        let sets = config.sets();
        assert!(set_len > 0, "empty set range");
        assert!(
            set_base.checked_add(set_len).is_some_and(|end| end <= sets),
            "set range [{set_base}, {set_base}+{set_len}) exceeds {sets} sets"
        );
        let ways = config.ways;
        let slots = (set_len * ways as u64) as usize;
        Llc {
            sets,
            set_base,
            set_len,
            ways,
            tags: vec![0; slots],
            valid: vec![0; set_len as usize],
            meta: vec![LineMeta::default(); slots],
            view_buf: vec![
                LineView {
                    block: BlockAddr::new(0),
                    sharer_count: 0,
                    dirty: false
                };
                ways
            ],
            policy,
            aux: None,
            time: 0,
            stats: LlcStats::default(),
            set_shift: sets.trailing_zeros(),
            full_mask: if ways == 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            },
        }
    }

    /// Installs an [`AuxProvider`] (OPT next-use chains, oracle bits).
    pub fn set_aux_provider(&mut self, aux: Box<dyn AuxProvider>) {
        self.aux = Some(aux);
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (used by set-dueling tests).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Accumulated counters.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Current LLC logical time (number of demand accesses processed).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// First set covered by this instance (0 for a full LLC).
    pub fn set_base(&self) -> u64 {
        self.set_base
    }

    /// Number of consecutive sets covered by this instance.
    pub fn set_len(&self) -> u64 {
        self.set_len
    }

    /// Forces the logical clock to `time`.
    ///
    /// Sharded replay drives each set-range `Llc` with the *global* stream
    /// index so that fill/end timestamps, OPT's next-use comparisons and
    /// policy clocks match the sequential run bit for bit: it seeks to the
    /// access's global index before each [`Llc::access`] and to the stream
    /// length before [`Llc::flush`].
    pub fn seek_time(&mut self, time: u64) {
        debug_assert!(time >= self.time, "logical time must not move backwards");
        self.time = time;
    }

    /// Line-storage index of the first way of `set`, which must lie inside
    /// this instance's range.
    #[inline]
    fn set_slot(&self, set: u64) -> usize {
        debug_assert!(
            set >= self.set_base && set < self.set_base + self.set_len,
            "set {set} outside range [{}, {})",
            self.set_base,
            self.set_base + self.set_len
        );
        ((set - self.set_base) as usize) * self.ways
    }

    /// Branchless tag match: bit `w` of the result is set iff way `w`
    /// holds a live line whose tag equals `tag`. The compare runs over the
    /// set's contiguous tag row (no per-way branch, SIMD-friendly) and the
    /// valid mask is folded in at the end.
    #[inline]
    fn match_mask(&self, set: u64, tag: u64) -> u64 {
        let base = self.set_slot(set);
        let tags = &self.tags[base..base + self.ways];
        let mut mask = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            mask |= u64::from(t == tag) << w;
        }
        mask & self.valid[(set - self.set_base) as usize]
    }

    /// Returns the way holding `tag` in `set`, if resident.
    #[inline]
    fn find_way(&self, set: u64, tag: u64) -> Option<usize> {
        let mask = self.match_mask(set, tag);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// Records a coherence *upgrade*: `core` wrote a block it already had
    /// in its private cache. No LLC access takes place (the store was a
    /// private-cache hit), but the directory learns about the write, so
    /// the generation's write/sharer bookkeeping must reflect it —
    /// otherwise migratory read-write sharing would masquerade as
    /// read-only at the LLC. Policy state and hit/miss counters are
    /// untouched.
    pub fn note_upgrade(&mut self, block: BlockAddr, core: CoreId) {
        let set = block.set_index(self.sets);
        let tag = block.tag(self.sets);
        if let Some(w) = self.find_way(set, tag) {
            let slot = self.set_slot(set) + w;
            let meta = &mut self.meta[slot];
            meta.sharer_mask |= core.bit();
            meta.writer_mask |= core.bit();
            meta.writes = meta.writes.saturating_add(1);
        }
    }

    /// Returns `true` if `block` is resident (no state update).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = block.set_index(self.sets);
        let tag = block.tag(self.sets);
        self.find_way(set, tag).is_some()
    }

    /// Processes one demand access (a private-cache miss).
    ///
    /// Generic over the observer so monomorphized drivers with a concrete
    /// (e.g. null) observer pay no virtual dispatch; `&mut dyn
    /// LlcObserver` callers keep working unchanged.
    pub fn access<O: LlcObserver + ?Sized>(
        &mut self,
        block: BlockAddr,
        pc: Pc,
        core: CoreId,
        kind: AccessKind,
        obs: &mut O,
    ) -> LlcAccess {
        let time = self.time;
        self.time += 1;
        self.stats.accesses += 1;
        if kind.is_write() {
            self.stats.writes += 1;
        }

        let aux = match self.aux.as_mut() {
            Some(aux) => aux.aux_for(time, block),
            None => Aux::default(),
        };
        let ctx = AccessCtx {
            block,
            pc,
            core,
            kind,
            time,
            aux,
        };

        let set = block.set_index(self.sets);
        let tag = block.tag(self.sets);
        let base = self.set_slot(set);
        let set_idx = (set - self.set_base) as usize;

        // Hit path.
        let mask = self.match_mask(set, tag);
        if mask != 0 {
            let w = mask.trailing_zeros() as usize;
            let meta = &mut self.meta[base + w];
            let was_new_sharer = meta.sharer_mask & core.bit() == 0;
            meta.sharer_mask |= core.bit();
            meta.hits = meta.hits.saturating_add(1);
            if core != meta.fill_core {
                meta.hits_by_non_filler = meta.hits_by_non_filler.saturating_add(1);
                self.stats.hits_by_non_filler += 1;
            }
            if kind.is_write() {
                meta.writes = meta.writes.saturating_add(1);
                meta.writer_mask |= core.bit();
            }
            self.stats.hits += 1;
            let live = LiveGeneration {
                block,
                sharer_mask: meta.sharer_mask,
                writer_mask: meta.writer_mask,
                hits: meta.hits,
                fill_core: meta.fill_core,
                fill_time: meta.fill_time,
            };
            obs.on_hit(&ctx, &live, was_new_sharer);
            self.policy.on_hit(set as usize, w, &ctx);
            return LlcAccess {
                hit: true,
                victim: None,
            };
        }

        // Miss: fill the lowest invalid way, or consult the policy for a
        // victim if the set is full.
        let invalid = !self.valid[set_idx] & self.full_mask;
        let mut victim_block = None;
        let way = if invalid != 0 {
            invalid.trailing_zeros() as usize
        } else {
            // The line-view gather touches every way's bookkeeping record —
            // by far the widest memory footprint in the miss path — so it
            // only runs for policies that declare they read `lines`. In the
            // monomorphized drivers the branch folds away statically.
            let lines: &[LineView] = if self.policy.needs_line_views() {
                for w in 0..self.ways {
                    let slot = base + w;
                    self.view_buf[w] = LineView {
                        block: BlockAddr::new((self.tags[slot] << self.set_shift) | set),
                        sharer_count: self.meta[slot].sharer_mask.count_ones(),
                        dirty: self.meta[slot].writes > 0,
                    };
                }
                &self.view_buf
            } else {
                &[]
            };
            let view = SetView {
                lines,
                allowed: self.full_mask,
            };
            let w = self.policy.choose_victim(set as usize, &view, &ctx);
            debug_assert!(w < self.ways, "policy returned out-of-range way {w}");
            let gen = self.end_generation(set, w, time, EvictCause::Replacement);
            victim_block = Some(gen.block);
            self.stats.evictions += 1;
            self.policy.on_evict(set as usize, w, &gen);
            obs.on_generation_end(&gen);
            w
        };

        self.stats.fills += 1;
        let slot = base + way;
        self.valid[set_idx] |= 1u64 << way;
        self.tags[slot] = tag;
        self.meta[slot] = LineMeta {
            sharer_mask: core.bit(),
            writer_mask: if kind.is_write() { core.bit() } else { 0 },
            hits: 0,
            hits_by_non_filler: 0,
            writes: if kind.is_write() { 1 } else { 0 },
            fill_core: core,
            fill_pc: pc,
            fill_time: time,
        };
        obs.on_fill(&ctx);
        self.policy.on_fill(set as usize, way, &ctx);
        LlcAccess {
            hit: false,
            victim: victim_block,
        }
    }

    fn end_generation(
        &mut self,
        set: u64,
        way: usize,
        now: u64,
        cause: EvictCause,
    ) -> GenerationEnd {
        let set_idx = (set - self.set_base) as usize;
        let slot = self.set_slot(set) + way;
        debug_assert!(
            self.valid[set_idx] & (1u64 << way) != 0,
            "ending a generation of an invalid line"
        );
        let meta = &self.meta[slot];
        let gen = GenerationEnd {
            block: BlockAddr::new((self.tags[slot] << self.set_shift) | set),
            set: set as usize,
            fill_pc: meta.fill_pc,
            fill_core: meta.fill_core,
            fill_time: meta.fill_time,
            end_time: now,
            sharer_mask: meta.sharer_mask,
            writer_mask: meta.writer_mask,
            hits: meta.hits,
            hits_by_non_filler: meta.hits_by_non_filler,
            writes: meta.writes,
            cause,
        };
        self.valid[set_idx] &= !(1u64 << way);
        gen
    }

    /// Ends every live generation with [`EvictCause::Flush`], reporting each
    /// to the policy and the observer. Call once at the end of a simulation
    /// so that per-generation statistics cover the whole run.
    pub fn flush<O: LlcObserver + ?Sized>(&mut self, obs: &mut O) {
        let now = self.time;
        for set in self.set_base..self.set_base + self.set_len {
            // Ascending-way order, exactly as the per-way scan reported.
            let mut live = self.valid[(set - self.set_base) as usize];
            while live != 0 {
                let way = live.trailing_zeros() as usize;
                live &= live - 1;
                let gen = self.end_generation(set, way, now, EvictCause::Flush);
                self.stats.flushed += 1;
                self.policy.on_evict(set as usize, way, &gen);
                obs.on_generation_end(&gen);
            }
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Llc<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Llc")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("time", &self.time)
            .field("stats", &self.stats)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial policy evicting way 0 always; exercises the cache mechanics.
    #[derive(Debug, Default)]
    struct EvictWayZero;

    impl ReplacementPolicy for EvictWayZero {
        fn name(&self) -> String {
            "EvictWayZero".into()
        }
        fn on_fill(&mut self, _: usize, _: usize, _: &AccessCtx) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &AccessCtx) {}
        fn choose_victim(&mut self, _: usize, view: &SetView<'_>, _: &AccessCtx) -> usize {
            view.allowed_ways().next().expect("non-empty candidates")
        }
    }

    fn tiny_llc() -> Llc<EvictWayZero> {
        // 2 sets x 2 ways.
        Llc::new(CacheConfig::new(2 * 2 * 64, 2).unwrap(), EvictWayZero)
    }

    fn blk(set: u64, tag: u64) -> BlockAddr {
        BlockAddr::new(tag * 2 + set)
    }

    struct Recorder {
        gens: Vec<GenerationEnd>,
        fills: u64,
        hits: u64,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                gens: Vec::new(),
                fills: 0,
                hits: 0,
            }
        }
    }

    impl LlcObserver for Recorder {
        fn on_hit(&mut self, _: &AccessCtx, _: &LiveGeneration, _: bool) {
            self.hits += 1;
        }
        fn on_fill(&mut self, _: &AccessCtx) {
            self.fills += 1;
        }
        fn on_generation_end(&mut self, gen: &GenerationEnd) {
            self.gens.push(*gen);
        }
    }

    #[test]
    fn generation_accounting_balances() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        let c0 = CoreId::new(0);
        // Fill 3 blocks into set 0 (2 ways): one eviction.
        for tag in 0..3 {
            llc.access(blk(0, tag), Pc::new(1), c0, AccessKind::Read, &mut rec);
        }
        assert_eq!(llc.stats().fills, 3);
        assert_eq!(llc.stats().evictions, 1);
        llc.flush(&mut rec);
        assert_eq!(llc.stats().flushed, 2);
        // fills == generations ended.
        assert_eq!(rec.gens.len() as u64, llc.stats().fills);
        assert_eq!(llc.valid_lines(), 0);
    }

    #[test]
    fn sharing_classification() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        let b = blk(0, 5);
        llc.access(b, Pc::new(1), CoreId::new(0), AccessKind::Read, &mut rec);
        llc.access(b, Pc::new(2), CoreId::new(1), AccessKind::Read, &mut rec);
        llc.access(b, Pc::new(2), CoreId::new(1), AccessKind::Read, &mut rec);
        llc.flush(&mut rec);
        let gen = rec.gens.iter().find(|g| g.block == b).unwrap();
        assert!(gen.is_shared());
        assert!(gen.is_read_only_shared());
        assert!(!gen.is_read_write_shared());
        assert_eq!(gen.sharer_count(), 2);
        assert_eq!(gen.hits, 2);
        assert_eq!(gen.hits_by_non_filler, 2);
        assert_eq!(gen.writes, 0);
    }

    #[test]
    fn write_sharing_classification() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        let b = blk(1, 3);
        llc.access(b, Pc::new(1), CoreId::new(0), AccessKind::Write, &mut rec);
        llc.access(b, Pc::new(2), CoreId::new(2), AccessKind::Write, &mut rec);
        llc.flush(&mut rec);
        let gen = rec.gens.iter().find(|g| g.block == b).unwrap();
        assert!(gen.is_read_write_shared());
        assert_eq!(gen.writer_mask.count_ones(), 2);
        assert_eq!(gen.writes, 2);
    }

    #[test]
    fn private_generation_is_not_shared() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        let b = blk(0, 9);
        let c = CoreId::new(3);
        llc.access(b, Pc::new(1), c, AccessKind::Read, &mut rec);
        llc.access(b, Pc::new(1), c, AccessKind::Write, &mut rec);
        llc.flush(&mut rec);
        let gen = rec.gens.iter().find(|g| g.block == b).unwrap();
        assert!(!gen.is_shared());
        assert_eq!(gen.sharer_count(), 1);
        assert_eq!(gen.hits_by_non_filler, 0);
        assert_eq!(gen.writes, 1);
    }

    #[test]
    fn victim_reported_for_back_invalidation() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        let c0 = CoreId::new(0);
        llc.access(blk(0, 0), Pc::new(1), c0, AccessKind::Read, &mut rec);
        llc.access(blk(0, 1), Pc::new(1), c0, AccessKind::Read, &mut rec);
        let r = llc.access(blk(0, 2), Pc::new(1), c0, AccessKind::Read, &mut rec);
        assert!(!r.hit);
        assert_eq!(r.victim, Some(blk(0, 0))); // EvictWayZero
    }

    #[test]
    fn time_advances_per_access() {
        let mut llc = tiny_llc();
        let mut rec = Recorder::new();
        assert_eq!(llc.time(), 0);
        llc.access(
            blk(0, 0),
            Pc::new(1),
            CoreId::new(0),
            AccessKind::Read,
            &mut rec,
        );
        llc.access(
            blk(0, 0),
            Pc::new(1),
            CoreId::new(0),
            AccessKind::Read,
            &mut rec,
        );
        assert_eq!(llc.time(), 2);
        llc.flush(&mut rec);
        let gen = &rec.gens[0];
        assert_eq!(gen.fill_time, 0);
        assert_eq!(gen.end_time, 2);
        assert_eq!(gen.lifetime(), 2);
        assert_eq!(gen.cause, EvictCause::Flush);
    }
}
