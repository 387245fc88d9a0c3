//! Flat hit/miss counters for the caches in the hierarchy.

use std::fmt;
use std::ops::AddAssign;

/// Counters for a single private cache (per core, L1 or L2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivateCacheStats {
    /// Demand accesses (loads + stores).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Lines evicted by replacement.
    pub evictions: u64,
    /// Lines removed by coherence invalidations (a remote core wrote the
    /// block).
    pub invalidations: u64,
    /// Lines removed by LLC back-invalidation (inclusive mode only).
    pub back_invalidations: u64,
}

impl PrivateCacheStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; `0` when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

impl AddAssign for PrivateCacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.evictions += rhs.evictions;
        self.invalidations += rhs.invalidations;
        self.back_invalidations += rhs.back_invalidations;
    }
}

impl fmt::Display for PrivateCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} ({:.2}% miss)",
            self.accesses,
            self.hits,
            self.misses(),
            self.miss_ratio() * 100.0
        )
    }
}

/// Counters for the shared LLC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Demand accesses reaching the LLC (private-cache misses).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Fills (equals misses: the LLC allocates on every demand miss).
    pub fills: u64,
    /// Generations ended by replacement.
    pub evictions: u64,
    /// Generations ended by the end-of-simulation flush.
    pub flushed: u64,
    /// Demand hits issued by a core different from the core that filled the
    /// line (a direct measure of constructive cross-thread reuse).
    pub hits_by_non_filler: u64,
    /// Stores observed at the LLC.
    pub writes: u64,
}

impl LlcStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; `0` when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; `0` when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for LlcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} ({:.2}% miss), {} cross-core hits",
            self.accesses,
            self.hits,
            self.misses(),
            self.miss_ratio() * 100.0,
            self.hits_by_non_filler
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_accesses() {
        let s = LlcStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
        let p = PrivateCacheStats::default();
        assert_eq!(p.miss_ratio(), 0.0);
    }

    #[test]
    fn misses_are_accesses_minus_hits() {
        let s = LlcStats {
            accesses: 10,
            hits: 3,
            ..LlcStats::default()
        };
        assert_eq!(s.misses(), 7);
        assert!((s.miss_ratio() - 0.7).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut p = PrivateCacheStats {
            accesses: 5,
            hits: 4,
            evictions: 1,
            ..Default::default()
        };
        p += PrivateCacheStats {
            accesses: 5,
            hits: 1,
            invalidations: 2,
            back_invalidations: 3,
            ..Default::default()
        };
        assert_eq!(p.accesses, 10);
        assert_eq!(p.misses(), 5);
        assert_eq!(p.evictions, 1);
        assert_eq!(p.invalidations, 2);
        assert_eq!(p.back_invalidations, 3);
    }
}
