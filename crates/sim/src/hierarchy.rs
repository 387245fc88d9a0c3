//! The chip-multiprocessor: per-core private caches, a coherence directory
//! for the private levels, and the shared LLC.
//!
//! # Modelled behaviour
//!
//! * Private caches are write-allocate, write-back, LRU. Dirty private
//!   victims are written back to memory directly and do **not** perturb the
//!   LLC (the LLC reference stream is the pure demand-miss stream, which
//!   keeps it independent of the LLC replacement policy in non-inclusive
//!   mode — a prerequisite for an exact Belady OPT).
//! * Coherence is directory-based MESI-lite: a store by core *c* to a block
//!   cached by other cores invalidates the remote private copies, so the
//!   remote cores' next accesses miss privately and reach the LLC. This is
//!   exactly the mechanism by which read-write sharing becomes visible to
//!   the LLC on real hardware.
//! * In [`Inclusion::Inclusive`] mode an LLC eviction back-invalidates all
//!   private copies of the victim.

use crate::addr::{AccessKind, Addr, BlockAddr, CoreId, Pc};
use crate::config::{ConfigError, HierarchyConfig, Inclusion, SimError};
use crate::dir::CoherenceDir;
use crate::l1::{L1Access, PrivateCache};
use crate::llc::{Llc, LlcObserver};
use crate::replace::{AccessCtx, Aux, AuxProvider, ReplacementPolicy};
use crate::stats::{LlcStats, PrivateCacheStats};

/// One record of a multi-threaded memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Core (= thread) issuing the access.
    pub core: CoreId,
    /// PC of the instruction.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Number of instructions this record represents: the memory
    /// instruction itself plus the non-memory instructions since the
    /// thread's previous access. Used for MPKI reporting.
    ///
    /// Note that synthetic workloads emit **block-granular** records (one
    /// record per cache-block touch rather than per word access), the
    /// standard form for LLC replacement studies; `instr_gap` then stands
    /// for the whole intra-block access burst plus surrounding compute.
    pub instr_gap: u32,
}

impl MemAccess {
    /// Convenience constructor with `instr_gap = 1`.
    pub fn new(core: CoreId, pc: Pc, addr: Addr, kind: AccessKind) -> Self {
        MemAccess {
            core,
            pc,
            addr,
            kind,
            instr_gap: 1,
        }
    }
}

/// Outcome of running one access through the private levels: either it was
/// filtered by an L1/L2 hit (carrying whether it was a write, i.e. a MESI
/// upgrade the shared level must observe), or it must proceed to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrivateOutcome {
    Hit { write: bool },
    Miss,
}

/// Core-count threshold for the coherence bookkeeping strategy. At or
/// below this many cores, a store resolves remote private copies by
/// probing every other core's L1/L2 tag planes directly (a handful of
/// cache-resident loads, and an always-correct truth source), which is
/// cheaper than maintaining a directory entry on every LLC fill and
/// private eviction. Above it, the per-store probe count outgrows the
/// amortized cost of a [`CoherenceDir`] entry.
const PROBE_ALL_MAX_CORES: usize = 8;

/// The private side of the hierarchy: per-core L1 (and optional L2) caches
/// plus the coherence bookkeeping tracking which cores privately hold each
/// block. Shared verbatim between the full simulator ([`Cmp`]) and the
/// LLC-free record kernel ([`RecordCmp`]) so the two can never diverge on
/// coherence behaviour.
struct PrivateLevels {
    cores: usize,
    l1: Vec<PrivateCache>,
    l2: Vec<PrivateCache>,
    /// For each block, the bit-vector of cores holding it in a private
    /// cache. Entries are removed when the mask drops to zero.
    ///
    /// `None` selects the probe-all strategy (core counts up to
    /// [`PROBE_ALL_MAX_CORES`]): stores and back-invalidations probe the
    /// private tag planes of every other core instead, and fills and
    /// evictions do no bookkeeping at all. Both strategies produce
    /// bit-identical streams and statistics — [`PrivateCache::invalidate`]
    /// is a no-op (and counts nothing) when the block is absent, exactly
    /// like a cleared directory bit.
    private_dir: Option<CoherenceDir>,
}

impl PrivateLevels {
    /// Builds empty private levels from a (validated) configuration,
    /// choosing the coherence strategy by core count.
    fn new(config: &HierarchyConfig) -> Self {
        Self::with_directory(config, config.cores > PROBE_ALL_MAX_CORES)
    }

    /// Builds empty private levels with an explicit coherence strategy
    /// (exposed to tests so both strategies can run on the same
    /// configuration and be compared record-for-record).
    fn with_directory(config: &HierarchyConfig, use_dir: bool) -> Self {
        let l1 = (0..config.cores)
            .map(|_| PrivateCache::new(config.l1))
            .collect();
        let l2 = match config.l2 {
            Some(l2cfg) => (0..config.cores)
                .map(|_| PrivateCache::new(l2cfg))
                .collect(),
            None => Vec::new(),
        };
        PrivateLevels {
            cores: config.cores,
            l1,
            l2,
            private_dir: use_dir.then(CoherenceDir::new),
        }
    }

    /// Runs one access through the coherence step and the private levels.
    ///
    /// A write first invalidates remote private copies (so remote readers
    /// re-fetch through the LLC), then the block probes L1 and — on an L1
    /// miss — the optional L2, handling private victims along the way.
    ///
    /// Directory invariant (directory strategy only): if a core holds a
    /// block in its L1 or L2, its directory bit is set. Fills set the bit
    /// (the caller's miss path invokes [`PrivateLevels::dir_set`]); every
    /// path that drops a private copy (private eviction, remote
    /// invalidation, back-invalidation) clears the bit in the same step.
    /// Hit paths skip the table entirely — the upsert they used to perform
    /// was always a no-op. Under the probe-all strategy no bookkeeping
    /// happens at all: the tag planes themselves are the directory.
    #[inline]
    fn filter(&mut self, block: BlockAddr, core: CoreId, is_write: bool) -> PrivateOutcome {
        if is_write {
            self.invalidate_remote(block, core);
        }

        // L1. An L1 victim can only survive privately in the same core's
        // L2 — the L1 that just evicted it cannot still hold it.
        match self.l1[core.index()].access(block, is_write) {
            L1Access::Hit => {
                debug_assert!(self.dir_holds(block, core), "L1 hit without dir bit");
                return PrivateOutcome::Hit { write: is_write };
            }
            L1Access::Miss { victim } => {
                if let Some(v) = victim {
                    if self.private_dir.is_some() {
                        let still_held = self
                            .l2
                            .get(core.index())
                            .is_some_and(|l2| l2.contains(v.block));
                        if !still_held {
                            self.dir_clear(v.block, core);
                        }
                    }
                }
            }
        }

        // Optional L2. Symmetrically, an L2 victim can only survive in the
        // same core's L1.
        if !self.l2.is_empty() {
            match self.l2[core.index()].access(block, is_write) {
                L1Access::Hit => {
                    debug_assert!(self.dir_holds(block, core), "L2 hit without dir bit");
                    return PrivateOutcome::Hit { write: is_write };
                }
                L1Access::Miss { victim } => {
                    if let Some(v) = victim {
                        if self.private_dir.is_some() && !self.l1[core.index()].contains(v.block) {
                            self.dir_clear(v.block, core);
                        }
                    }
                }
            }
        }

        PrivateOutcome::Miss
    }

    /// Debug-build check of the directory invariant on private-hit paths
    /// (compiled but unused in release builds — `debug_assert!` still
    /// type-checks its condition there).
    /// Debug-build check of the directory invariant on private-hit paths
    /// (trivially true under probe-all, where the tag planes are the
    /// directory and the caller just hit one of them).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn dir_holds(&self, block: BlockAddr, core: CoreId) -> bool {
        match &self.private_dir {
            Some(dir) => dir
                .get(block.raw())
                .is_some_and(|mask| mask & core.bit() != 0),
            None => true,
        }
    }

    fn dir_set(&mut self, block: BlockAddr, core: CoreId) {
        if let Some(dir) = &mut self.private_dir {
            dir.set_bit(block.raw(), core.bit());
        }
    }

    /// Clears `core`'s directory bit for `block` (the caller has verified
    /// the directory strategy is active and none of that core's private
    /// caches still holds the block).
    fn dir_clear(&mut self, block: BlockAddr, core: CoreId) {
        if let Some(dir) = &mut self.private_dir {
            dir.clear_bit(block.raw(), core.bit());
        }
    }

    fn invalidate_remote(&mut self, block: BlockAddr, writer: CoreId) {
        let Some(dir) = &mut self.private_dir else {
            // Probe-all: ask every other core's tag planes directly.
            // `invalidate` no-ops (and counts nothing) when absent, so
            // this is observably identical to the directory walk.
            for c in 0..self.cores {
                if c == writer.index() {
                    continue;
                }
                self.l1[c].invalidate(block, false);
                if let Some(l2) = self.l2.get_mut(c) {
                    l2.invalidate(block, false);
                }
            }
            return;
        };
        let Some(mask) = dir.get(block.raw()) else {
            return;
        };
        let remote = mask & !writer.bit();
        if remote == 0 {
            return;
        }
        for c in 0..self.cores {
            if remote & (1u32 << c) != 0 {
                self.l1[c].invalidate(block, false);
                if let Some(l2) = self.l2.get_mut(c) {
                    l2.invalidate(block, false);
                }
            }
        }
        self.private_dir
            .as_mut()
            .expect("directory strategy checked above")
            .retain_only(block.raw(), writer.bit());
    }

    fn back_invalidate(&mut self, block: BlockAddr) {
        let Some(dir) = &mut self.private_dir else {
            for c in 0..self.cores {
                self.l1[c].invalidate(block, true);
                if let Some(l2) = self.l2.get_mut(c) {
                    l2.invalidate(block, true);
                }
            }
            return;
        };
        let Some(mask) = dir.remove(block.raw()) else {
            return;
        };
        for c in 0..self.cores {
            if mask & (1u32 << c) != 0 {
                self.l1[c].invalidate(block, true);
                if let Some(l2) = self.l2.get_mut(c) {
                    l2.invalidate(block, true);
                }
            }
        }
    }

    fn l1_stats(&self) -> PrivateCacheStats {
        let mut total = PrivateCacheStats::default();
        for c in &self.l1 {
            total += c.stats();
        }
        total
    }

    fn l2_stats(&self) -> PrivateCacheStats {
        let mut total = PrivateCacheStats::default();
        for c in &self.l2 {
            total += c.stats();
        }
        total
    }
}

/// The simulated chip-multiprocessor.
pub struct Cmp<P> {
    config: HierarchyConfig,
    private: PrivateLevels,
    llc: Llc<P>,
    instructions: u64,
    trace_accesses: u64,
}

impl<P: ReplacementPolicy> Cmp<P> {
    /// Builds an empty CMP from a configuration and an LLC policy.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: HierarchyConfig, policy: P) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Cmp {
            config,
            private: PrivateLevels::new(&config),
            llc: Llc::new(config.llc, policy),
            instructions: 0,
            trace_accesses: 0,
        })
    }

    /// The configuration this CMP was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Installs an [`AuxProvider`] on the LLC.
    pub fn set_aux_provider(&mut self, aux: Box<dyn AuxProvider>) {
        self.llc.set_aux_provider(aux);
    }

    /// Total instructions represented by the processed trace records.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total trace records processed.
    pub fn trace_accesses(&self) -> u64 {
        self.trace_accesses
    }

    /// LLC counters.
    pub fn llc_stats(&self) -> LlcStats {
        self.llc.stats()
    }

    /// The LLC, for inspection.
    pub fn llc(&self) -> &Llc<P> {
        &self.llc
    }

    /// Aggregated L1 counters over all cores.
    pub fn l1_stats(&self) -> PrivateCacheStats {
        self.private.l1_stats()
    }

    /// Per-core L1 counters.
    pub fn l1_stats_per_core(&self) -> Vec<PrivateCacheStats> {
        self.private.l1.iter().map(|c| c.stats()).collect()
    }

    /// Aggregated L2 counters over all cores (zero if no L2 is configured).
    pub fn l2_stats(&self) -> PrivateCacheStats {
        self.private.l2_stats()
    }

    /// Validates that `a` can be processed by this hierarchy (its core id
    /// names a configured core).
    ///
    /// The per-access hot path in [`Cmp::access`] only debug-asserts this
    /// invariant; drivers replaying externally produced traces should
    /// check each record first and surface the typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] when the record's core id is
    /// not below the configured core count.
    pub fn check_access(&self, a: &MemAccess) -> Result<(), SimError> {
        if a.core.index() >= self.config.cores {
            return Err(SimError::CoreOutOfRange {
                core: a.core.index(),
                cores: self.config.cores,
            });
        }
        Ok(())
    }

    /// Processes one trace record through the hierarchy.
    ///
    /// Generic over the observer so that monomorphized record kernels pay
    /// no virtual dispatch per record; `&mut dyn LlcObserver` still
    /// satisfies the bound for callers that need dynamic observers.
    pub fn access<O: LlcObserver + ?Sized>(&mut self, a: MemAccess, obs: &mut O) {
        debug_assert!(a.core.index() < self.config.cores, "core out of range");
        self.trace_accesses += 1;
        self.instructions += u64::from(a.instr_gap.max(1));
        let block = a.addr.block();

        match self.private.filter(block, a.core, a.kind.is_write()) {
            PrivateOutcome::Hit { write: true } => {
                // MESI upgrade: the directory observes the write even
                // though no LLC data access occurs.
                self.llc.note_upgrade(block, a.core);
                obs.on_upgrade(block, a.core);
            }
            PrivateOutcome::Hit { write: false } => {}
            PrivateOutcome::Miss => {
                let result = self.llc.access(block, a.pc, a.core, a.kind, obs);
                if self.config.inclusion == Inclusion::Inclusive {
                    if let Some(victim) = result.victim {
                        self.private.back_invalidate(victim);
                    }
                }
                self.private.dir_set(block, a.core);
            }
        }
    }

    /// Flushes all live LLC generations (call once at end of simulation).
    pub fn finish<O: LlcObserver + ?Sized>(&mut self, obs: &mut O) {
        self.llc.flush(obs);
    }
}

/// LLC-free record kernel for non-inclusive hierarchies.
///
/// In [`Inclusion::NonInclusive`] mode the LLC reference stream is
/// independent of the LLC's contents and replacement policy (dirty private
/// victims write back to memory and LLC evictions never touch the private
/// levels), so *recording* the stream does not require simulating the LLC
/// at all. This kernel runs only the private levels and the coherence
/// directory — the exact `PrivateLevels` logic the full [`Cmp`] uses —
/// and reports every LLC-bound reference to the observer via
/// [`LlcObserver::on_fill`] with a monotonically increasing logical time.
///
/// Hit/fill classification is deliberately absent: it would require an LLC
/// policy and is irrelevant to the recorded stream (a stream recorder
/// appends the same record for either callback). Coherence upgrades arrive
/// via [`LlcObserver::on_upgrade`] exactly as in [`Cmp`]. Compared to
/// driving a full [`Cmp`], this removes the LLC tag planes, LRU stamps,
/// victim scans, and generation bookkeeping — hundreds of kilobytes of
/// simulated state — from the record hot loop.
pub struct RecordCmp {
    config: HierarchyConfig,
    private: PrivateLevels,
    /// LLC logical time: the number of LLC references reported so far.
    time: u64,
    instructions: u64,
    trace_accesses: u64,
}

impl RecordCmp {
    /// Builds an empty record kernel from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or not
    /// [`Inclusion::NonInclusive`] — inclusive back-invalidations feed LLC
    /// state back into the private caches, so an inclusive stream cannot
    /// be recorded without simulating the LLC (use [`Cmp`] there).
    pub fn new(config: HierarchyConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.inclusion != Inclusion::NonInclusive {
            return Err(ConfigError::new(
                "RecordCmp requires a non-inclusive hierarchy: inclusive back-invalidations \
                 make the LLC reference stream depend on LLC state, so recording must drive \
                 the full Cmp simulation",
            ));
        }
        Ok(RecordCmp {
            config,
            private: PrivateLevels::new(&config),
            time: 0,
            instructions: 0,
            trace_accesses: 0,
        })
    }

    /// The configuration this kernel was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Total instructions represented by the processed trace records.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total trace records processed.
    pub fn trace_accesses(&self) -> u64 {
        self.trace_accesses
    }

    /// Number of LLC references reported so far (the stream length).
    pub fn llc_refs(&self) -> u64 {
        self.time
    }

    /// Aggregated L1 counters over all cores.
    pub fn l1_stats(&self) -> PrivateCacheStats {
        self.private.l1_stats()
    }

    /// Aggregated L2 counters over all cores (zero if no L2 is configured).
    pub fn l2_stats(&self) -> PrivateCacheStats {
        self.private.l2_stats()
    }

    /// Validates that `a` can be processed by this hierarchy; see
    /// [`Cmp::check_access`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] when the record's core id is
    /// not below the configured core count.
    pub fn check_access(&self, a: &MemAccess) -> Result<(), SimError> {
        if a.core.index() >= self.config.cores {
            return Err(SimError::CoreOutOfRange {
                core: a.core.index(),
                cores: self.config.cores,
            });
        }
        Ok(())
    }

    /// Processes one trace record: identical private-level and coherence
    /// behaviour to [`Cmp::access`], with the LLC reference reported
    /// straight to the observer instead of simulated.
    pub fn access<O: LlcObserver + ?Sized>(&mut self, a: MemAccess, obs: &mut O) {
        debug_assert!(a.core.index() < self.config.cores, "core out of range");
        self.trace_accesses += 1;
        self.instructions += u64::from(a.instr_gap.max(1));
        let block = a.addr.block();

        match self.private.filter(block, a.core, a.kind.is_write()) {
            PrivateOutcome::Hit { write: true } => obs.on_upgrade(block, a.core),
            PrivateOutcome::Hit { write: false } => {}
            PrivateOutcome::Miss => {
                let ctx = AccessCtx {
                    block,
                    pc: a.pc,
                    core: a.core,
                    kind: a.kind,
                    time: self.time,
                    aux: Aux::default(),
                };
                self.time += 1;
                obs.on_fill(&ctx);
                self.private.dir_set(block, a.core);
            }
        }
    }
}

impl std::fmt::Debug for RecordCmp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordCmp")
            .field("config", &self.config)
            .field("llc_refs", &self.time)
            .field("instructions", &self.instructions)
            .finish_non_exhaustive()
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Cmp<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cmp")
            .field("config", &self.config)
            .field("llc", &self.llc)
            .field("instructions", &self.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::config::CacheConfig;
    use crate::llc::NullObserver;
    use crate::replace::{AccessCtx, SetView};

    /// LRU-by-insertion-order stand-in policy for hierarchy tests.
    #[derive(Debug, Default)]
    struct FifoPolicy {
        fill_stamp: HashMap<(usize, usize), u64>,
        clock: u64,
    }

    impl ReplacementPolicy for FifoPolicy {
        fn name(&self) -> String {
            "FIFO".into()
        }
        fn on_fill(&mut self, set: usize, way: usize, _: &AccessCtx) {
            self.clock += 1;
            self.fill_stamp.insert((set, way), self.clock);
        }
        fn on_hit(&mut self, _: usize, _: usize, _: &AccessCtx) {}
        fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _: &AccessCtx) -> usize {
            view.allowed_ways()
                .min_by_key(|&w| self.fill_stamp.get(&(set, w)).copied().unwrap_or(0))
                .expect("non-empty")
        }
    }

    fn cfg() -> HierarchyConfig {
        HierarchyConfig {
            cores: 4,
            l1: CacheConfig::new(4 * 2 * 64, 2).unwrap(), // 4 sets x 2 ways
            l2: None,
            llc: CacheConfig::new(16 * 4 * 64, 4).unwrap(), // 16 sets x 4 ways
            inclusion: Inclusion::NonInclusive,
        }
    }

    fn read(core: usize, addr: u64) -> MemAccess {
        MemAccess::new(
            CoreId::new(core),
            Pc::new(0x400),
            Addr::new(addr),
            AccessKind::Read,
        )
    }

    fn write(core: usize, addr: u64) -> MemAccess {
        MemAccess::new(
            CoreId::new(core),
            Pc::new(0x500),
            Addr::new(addr),
            AccessKind::Write,
        )
    }

    #[test]
    fn l1_filters_repeated_accesses() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        for _ in 0..10 {
            cmp.access(read(0, 0x1000), &mut obs);
        }
        assert_eq!(cmp.llc_stats().accesses, 1); // only the first reaches LLC
        assert_eq!(cmp.l1_stats().accesses, 10);
        assert_eq!(cmp.l1_stats().hits, 9);
    }

    #[test]
    fn read_only_sharing_reaches_llc_once_per_core() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        for core in 0..4 {
            for _ in 0..5 {
                cmp.access(read(core, 0x2000), &mut obs);
            }
        }
        // One compulsory LLC access per core; 3 of them hit the LLC.
        assert_eq!(cmp.llc_stats().accesses, 4);
        assert_eq!(cmp.llc_stats().hits, 3);
        assert_eq!(cmp.llc_stats().hits_by_non_filler, 3);
    }

    #[test]
    fn write_invalidates_remote_l1_copies() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        cmp.access(read(0, 0x3000), &mut obs); // core0 caches it
        cmp.access(read(1, 0x3000), &mut obs); // core1 caches it (LLC hit)
        cmp.access(write(0, 0x3000), &mut obs); // invalidates core1's copy; core0 L1 hit
        assert_eq!(cmp.llc_stats().accesses, 2);
        // Core1 must now miss L1 and return to the LLC.
        cmp.access(read(1, 0x3000), &mut obs);
        assert_eq!(cmp.llc_stats().accesses, 3);
        assert_eq!(cmp.llc_stats().hits, 2);
    }

    #[test]
    fn ping_pong_sharing_alternates_llc_accesses() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        // Two cores alternately write the same block: every access after the
        // first one still reaches the LLC because the remote copy dies.
        for i in 0..10 {
            cmp.access(write(i % 2, 0x4000), &mut obs);
        }
        assert_eq!(cmp.llc_stats().accesses, 10);
        assert_eq!(cmp.llc_stats().hits, 9);
    }

    #[test]
    fn instruction_counting_uses_gaps() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        let mut a = read(0, 0x5000);
        a.instr_gap = 7;
        cmp.access(a, &mut obs);
        cmp.access(read(0, 0x5000), &mut obs);
        assert_eq!(cmp.instructions(), 8);
        assert_eq!(cmp.trace_accesses(), 2);
    }

    #[test]
    fn inclusive_mode_back_invalidates() {
        let mut c = cfg();
        c.inclusion = Inclusion::Inclusive;
        // LLC with 1 set x 2 ways so evictions are easy to force.
        c.llc = CacheConfig::new(2 * 64, 2).unwrap();
        let mut cmp = Cmp::new(c, FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        // Distinct L1 sets to keep all three blocks in the L1: L1 has 4
        // sets; blocks 0x0, 0x40, 0x80 map to L1 sets 0,1,2 and all to LLC
        // set 0.
        cmp.access(read(0, 0x0), &mut obs);
        cmp.access(read(0, 0x40), &mut obs);
        cmp.access(read(0, 0x80), &mut obs); // evicts 0x0 from LLC and from L1
        assert_eq!(cmp.l1_stats().back_invalidations, 1);
        // Re-reading 0x0 must go through the LLC again.
        cmp.access(read(0, 0x0), &mut obs);
        assert_eq!(cmp.llc_stats().accesses, 4);
    }

    #[test]
    fn non_inclusive_mode_keeps_l1_copies() {
        let mut c = cfg();
        c.llc = CacheConfig::new(2 * 64, 2).unwrap(); // 1 set x 2 ways
        let mut cmp = Cmp::new(c, FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        cmp.access(read(0, 0x0), &mut obs);
        cmp.access(read(0, 0x40), &mut obs);
        cmp.access(read(0, 0x80), &mut obs); // LLC eviction of 0x0, L1 keeps it
        assert_eq!(cmp.l1_stats().back_invalidations, 0);
        cmp.access(read(0, 0x0), &mut obs); // L1 hit, LLC untouched
        assert_eq!(cmp.llc_stats().accesses, 3);
    }

    #[test]
    fn l2_filters_between_l1_and_llc() {
        let mut c = cfg();
        c.l2 = Some(CacheConfig::new(8 * 4 * 64, 4).unwrap());
        let mut cmp = Cmp::new(c, FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        // Touch 3 blocks in the same L1 set (L1: 4 sets, 2 ways) so one is
        // evicted from L1 but still in L2.
        cmp.access(read(0, 0x000), &mut obs); // L1 set 0
        cmp.access(read(0, 0x100), &mut obs); // L1 set 0
        cmp.access(read(0, 0x200), &mut obs); // L1 set 0 -> evicts 0x000
        assert_eq!(cmp.llc_stats().accesses, 3);
        // 0x000 hits in L2 without reaching the LLC.
        cmp.access(read(0, 0x000), &mut obs);
        assert_eq!(cmp.llc_stats().accesses, 3);
        assert_eq!(cmp.l2_stats().hits, 1);
    }

    #[test]
    fn l1_write_hits_upgrade_llc_generation() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        struct Last(Option<crate::llc::GenerationEnd>);
        impl LlcObserver for Last {
            fn on_generation_end(&mut self, gen: &crate::llc::GenerationEnd) {
                self.0 = Some(*gen);
            }
        }
        let mut obs = Last(None);
        // Core 0 reads (LLC fill), core 1 reads (LLC hit) — then core 1
        // writes while holding the block in its L1: an upgrade, not an
        // LLC access.
        cmp.access(read(0, 0x6000), &mut obs);
        cmp.access(read(1, 0x6000), &mut obs);
        cmp.access(write(1, 0x6000), &mut obs);
        assert_eq!(
            cmp.llc_stats().accesses,
            2,
            "upgrade must not be an LLC access"
        );
        cmp.finish(&mut obs);
        let gen = obs.0.expect("one generation flushed");
        assert!(gen.sharer_mask.count_ones() >= 2);
        assert_eq!(gen.writes, 1, "the upgrade write must be recorded");
        assert_eq!(gen.writer_mask.count_ones(), 1);
    }

    /// Observer capturing the full LLC reference stream plus upgrades, to
    /// compare coherence strategies record-for-record.
    #[derive(Debug, Default, PartialEq)]
    struct Tape {
        refs: Vec<(BlockAddr, CoreId, bool)>,
        upgrades: Vec<(u64, BlockAddr, CoreId)>,
    }

    impl LlcObserver for Tape {
        fn on_hit(&mut self, ctx: &AccessCtx, _: &crate::llc::LiveGeneration, _: bool) {
            self.refs.push((ctx.block, ctx.core, true));
        }
        fn on_fill(&mut self, ctx: &AccessCtx) {
            self.refs.push((ctx.block, ctx.core, false));
        }
        fn on_upgrade(&mut self, block: BlockAddr, core: CoreId) {
            self.upgrades.push((self.refs.len() as u64, block, core));
        }
    }

    /// Deterministic xorshift access mix with heavy read-write sharing, to
    /// stress both coherence strategies on the same records.
    fn sharing_stimulus(cores: usize, n: usize) -> Vec<MemAccess> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let core = (x as usize >> 4) % cores;
                // Small shared region + per-core private region.
                let addr = if x.is_multiple_of(3) {
                    (x >> 16) % 0x40 * 64
                } else {
                    0x10000 * (core as u64 + 1) + ((x >> 16) % 0x200) * 64
                };
                let kind = if x.is_multiple_of(4) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                MemAccess::new(
                    CoreId::new(core),
                    Pc::new(0x400 + i as u64 % 32),
                    Addr::new(addr),
                    kind,
                )
            })
            .collect()
    }

    #[test]
    fn probe_all_and_directory_strategies_agree() {
        let mut c = cfg();
        c.l2 = Some(CacheConfig::new(8 * 4 * 64, 4).unwrap());
        for inclusion in [Inclusion::NonInclusive, Inclusion::Inclusive] {
            c.inclusion = inclusion;
            let mut probe_all = Cmp::new(c, FifoPolicy::default()).unwrap();
            let mut with_dir = Cmp::new(c, FifoPolicy::default()).unwrap();
            // 4 cores default to probe-all; force the directory strategy
            // on the second instance before any accesses are processed.
            assert!(probe_all.private.private_dir.is_none());
            with_dir.private = PrivateLevels::with_directory(&c, true);
            let (mut ta, mut tb) = (Tape::default(), Tape::default());
            for a in sharing_stimulus(4, 20_000) {
                probe_all.access(a, &mut ta);
                with_dir.access(a, &mut tb);
            }
            assert_eq!(ta, tb, "streams diverged ({inclusion:?})");
            assert_eq!(probe_all.llc_stats(), with_dir.llc_stats());
            assert_eq!(probe_all.l1_stats(), with_dir.l1_stats());
            assert_eq!(probe_all.l2_stats(), with_dir.l2_stats());
        }
    }

    #[test]
    fn large_core_count_uses_directory_strategy() {
        let mut c = cfg();
        c.cores = 16;
        let mut cmp = Cmp::new(c, FifoPolicy::default()).unwrap();
        assert!(cmp.private.private_dir.is_some());
        let mut obs = NullObserver;
        // Every core reads the block, then core 0 writes it: all 15 remote
        // copies must die and re-fetch through the LLC.
        for core in 0..16 {
            cmp.access(read(core, 0x8000), &mut obs);
        }
        cmp.access(write(0, 0x8000), &mut obs);
        assert_eq!(cmp.l1_stats().invalidations, 15);
        cmp.access(read(5, 0x8000), &mut obs);
        assert_eq!(cmp.llc_stats().accesses, 17);
    }

    #[test]
    fn record_cmp_matches_full_cmp_stream() {
        let mut c = cfg();
        c.l2 = Some(CacheConfig::new(8 * 4 * 64, 4).unwrap());
        let mut full = Cmp::new(c, FifoPolicy::default()).unwrap();
        let mut kernel = RecordCmp::new(c).unwrap();
        let (mut tf, mut tk) = (Tape::default(), Tape::default());
        for a in sharing_stimulus(4, 20_000) {
            full.access(a, &mut tf);
            kernel.access(a, &mut tk);
        }
        // RecordCmp reports every reference as a fill; erase the hit flag.
        let full_refs: Vec<_> = tf.refs.iter().map(|&(b, c, _)| (b, c)).collect();
        let kernel_refs: Vec<_> = tk.refs.iter().map(|&(b, c, _)| (b, c)).collect();
        assert_eq!(full_refs, kernel_refs);
        assert_eq!(tf.upgrades, tk.upgrades);
        assert_eq!(full.l1_stats(), kernel.l1_stats());
        assert_eq!(full.l2_stats(), kernel.l2_stats());
        assert_eq!(full.instructions(), kernel.instructions());
        assert_eq!(full.trace_accesses(), kernel.trace_accesses());
        assert_eq!(kernel.llc_refs(), kernel_refs.len() as u64);
    }

    #[test]
    fn record_cmp_rejects_inclusive_configs() {
        let mut c = cfg();
        c.inclusion = Inclusion::Inclusive;
        assert!(RecordCmp::new(c).is_err());
    }

    #[test]
    fn finish_flushes_llc() {
        let mut cmp = Cmp::new(cfg(), FifoPolicy::default()).unwrap();
        let mut obs = NullObserver;
        cmp.access(read(0, 0x7000), &mut obs);
        cmp.finish(&mut obs);
        assert_eq!(cmp.llc_stats().flushed, 1);
        assert_eq!(cmp.llc().valid_lines(), 0);
    }
}
