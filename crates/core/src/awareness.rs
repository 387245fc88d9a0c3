//! Sharing-awareness characterization of replacement policies
//! (experiment `fig6`).
//!
//! A policy is *sharing-oblivious* to the extent that it evicts blocks
//! which are about to be re-referenced — and in particular about to be
//! *shared*. [`VictimizationStats`] measures this directly: an eviction is
//! **premature** if the same block is refilled within a window of `W`
//! subsequent LLC accesses, and it is a **shared victimization** if that
//! refill starts a generation that turns out shared. OPT, being driven by
//! next-use distance, is naturally sharing-aware and scores near zero;
//! the gap between a realistic policy and OPT is the paper's motivation
//! for adding explicit sharing-awareness.

use std::collections::hash_map;

use fxhash::FxHashMap;
use llc_sim::{AccessCtx, BlockAddr, EvictCause, GenerationEnd, LlcObserver};

/// What [`VictimizationStats`] remembers about one block. A block is
/// either out of the LLC since an eviction or resident in a generation
/// that began as a premature refill, never both, so one map holds both
/// states and each fill or generation end makes one access to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Evicted by replacement at this time and not refilled since.
    Evicted(u64),
    /// Resident in an open generation that began as a premature refill.
    PrematureLive,
}

/// Premature-eviction and shared-victimization counters.
#[derive(Debug)]
pub struct VictimizationStats {
    window: u64,
    evictions: u64,
    premature: u64,
    premature_shared: u64,
    blocks: FxHashMap<BlockAddr, State>,
}

impl VictimizationStats {
    /// Creates the observer with a refill window of `window` LLC accesses
    /// (a multiple of the LLC associativity is a natural choice; the
    /// reproduction uses `64 × ways`).
    pub fn new(window: u64) -> Self {
        VictimizationStats {
            window,
            evictions: 0,
            premature: 0,
            premature_shared: 0,
            blocks: FxHashMap::default(),
        }
    }

    /// Total replacement evictions observed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions whose block was refilled within the window.
    pub fn premature(&self) -> u64 {
        self.premature
    }

    /// Premature evictions whose refilled generation became shared.
    pub fn premature_shared(&self) -> u64 {
        self.premature_shared
    }

    /// Fraction of evictions that were premature.
    pub fn premature_rate(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.premature as f64 / self.evictions as f64
        }
    }

    /// Fraction of evictions that prematurely killed a would-be-shared
    /// block — the *shared-block victimization rate*.
    pub fn shared_victimization_rate(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.premature_shared as f64 / self.evictions as f64
        }
    }
}

impl LlcObserver for VictimizationStats {
    fn on_fill(&mut self, ctx: &AccessCtx) {
        // A filled block is not resident, so its state is `Evicted` or
        // absent; a refill within the window turns it into an open
        // premature generation, any other refill forgets it.
        if let hash_map::Entry::Occupied(mut e) = self.blocks.entry(ctx.block) {
            match *e.get() {
                State::Evicted(t_evict) if ctx.time.saturating_sub(t_evict) <= self.window => {
                    self.premature += 1;
                    e.insert(State::PrematureLive);
                }
                _ => {
                    e.remove();
                }
            }
        }
    }

    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        // The ending generation's block is resident, so its state is
        // `PrematureLive` or absent.
        let was_premature = if gen.cause == EvictCause::Replacement {
            self.evictions += 1;
            self.blocks.insert(gen.block, State::Evicted(gen.end_time))
                == Some(State::PrematureLive)
        } else {
            self.blocks.remove(&gen.block) == Some(State::PrematureLive)
        };
        if was_premature && gen.is_shared() {
            self.premature_shared += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::{AccessKind, Aux, CoreId, Pc};

    fn fill(block: u64, time: u64) -> AccessCtx {
        AccessCtx {
            block: BlockAddr::new(block),
            pc: Pc::new(0x400),
            core: CoreId::new(0),
            kind: AccessKind::Read,
            time,
            aux: Aux::default(),
        }
    }

    fn evict(block: u64, end_time: u64, shared: bool) -> GenerationEnd {
        GenerationEnd {
            block: BlockAddr::new(block),
            set: 0,
            fill_pc: Pc::new(0x400),
            fill_core: CoreId::new(0),
            fill_time: 0,
            end_time,
            sharer_mask: if shared { 0b11 } else { 0b1 },
            writer_mask: 0,
            hits: 0,
            hits_by_non_filler: 0,
            writes: 0,
            cause: EvictCause::Replacement,
        }
    }

    #[test]
    fn counts_premature_shared_victimization() {
        let mut v = VictimizationStats::new(10);
        v.on_generation_end(&evict(1, 100, false)); // evicted at t=100
        v.on_fill(&fill(1, 105)); // refilled within window
        v.on_generation_end(&evict(1, 300, true)); // the refill became shared
        assert_eq!(v.evictions(), 2);
        assert_eq!(v.premature(), 1);
        assert_eq!(v.premature_shared(), 1);
        assert!((v.shared_victimization_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn late_refill_is_not_premature() {
        let mut v = VictimizationStats::new(10);
        v.on_generation_end(&evict(1, 100, false));
        v.on_fill(&fill(1, 200)); // outside the window
        assert_eq!(v.premature(), 0);
    }

    #[test]
    fn premature_private_refill_not_counted_as_shared() {
        let mut v = VictimizationStats::new(10);
        v.on_generation_end(&evict(1, 100, false));
        v.on_fill(&fill(1, 101));
        v.on_generation_end(&evict(1, 400, false)); // refill stayed private
        assert_eq!(v.premature(), 1);
        assert_eq!(v.premature_shared(), 0);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let v = VictimizationStats::new(16);
        assert_eq!(v.premature_rate(), 0.0);
        assert_eq!(v.shared_victimization_rate(), 0.0);
    }
}
