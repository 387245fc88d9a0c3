//! Uniform-random replacement.

use llc_sim::{splitmix64, AccessCtx, ReplacementPolicy, SetView};

/// Evicts a uniformly random candidate way.
///
/// Deterministic: the "random" stream is a counter passed through
/// SplitMix64, so simulations are exactly reproducible. Each set draws from
/// its own SplitMix64 chain (seeded from the policy seed and the set index),
/// so the victim chosen in one set never depends on how many evictions other
/// sets have suffered.
#[derive(Debug, Clone)]
pub struct Random {
    base: u64,
    states: Vec<u64>,
}

impl Random {
    /// Creates a random policy with the given seed.
    pub fn new(seed: u64) -> Self {
        Random {
            base: splitmix64(seed ^ 0x5eed_5eed_5eed_5eed),
            states: Vec::new(),
        }
    }

    fn next(&mut self, set: usize) -> u64 {
        while self.states.len() <= set {
            let s = self.states.len() as u64;
            self.states.push(splitmix64(
                self.base ^ s.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ));
        }
        let state = &mut self.states[set];
        *state = splitmix64(*state);
        *state
    }
}

impl Default for Random {
    fn default() -> Self {
        Random::new(0)
    }
}

impl ReplacementPolicy for Random {
    fn name(&self) -> String {
        "Random".into()
    }

    #[inline]
    fn on_fill(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessCtx) {}

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        let n = view.allowed.count_ones() as u64;
        debug_assert!(n > 0, "victim candidates must be non-empty");
        let k = self.next(set) % n;
        // infallible: k < n = count of allowed ways by construction.
        view.allowed_ways()
            .nth(k as usize)
            .expect("k < candidate count")
    }

    /// Victims come from this policy's own state; `lines` is never read.
    fn needs_line_views(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, full_view};

    #[test]
    fn only_picks_allowed_ways() {
        let mut p = Random::new(7);
        let lines = full_view(8);
        let view = SetView {
            lines: &lines,
            allowed: 0b0101_0000,
        };
        for t in 0..100 {
            let v = p.choose_victim(0, &view, &ctx(t));
            assert!(v == 4 || v == 6, "picked disallowed way {v}");
        }
    }

    #[test]
    fn covers_all_candidates_eventually() {
        let mut p = Random::new(1);
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1111,
        };
        let mut seen = [false; 4];
        for t in 0..200 {
            seen[p.choose_victim(0, &view, &ctx(t))] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let lines = full_view(8);
        let view = SetView {
            lines: &lines,
            allowed: 0xff,
        };
        let mut a = Random::new(42);
        let mut b = Random::new(42);
        for t in 0..50 {
            assert_eq!(
                a.choose_victim(0, &view, &ctx(t)),
                b.choose_victim(0, &view, &ctx(t))
            );
        }
    }
}
