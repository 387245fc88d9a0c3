//! True least-recently-used replacement.

use llc_sim::{AccessCtx, ReplacementPolicy, SetView};

/// True LRU: evicts the candidate whose last touch is oldest.
///
/// This is the paper's baseline policy; the headline oracle numbers (6% /
/// 10% miss reduction at 4 MB / 8 MB) are measured against it.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    stamps: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates an LRU policy for an LLC with `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru {
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// The recency stamp of `(set, way)`; larger is more recent (test
    /// hook).
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.stamps[set * self.ways + way]
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> String {
        "LRU".into()
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.touch(set, way);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        let stamps = &self.stamps[set * self.ways..(set + 1) * self.ways];
        if crate::full_row_mask(view, stamps.len()) {
            // Dense scan over the whole row — no mask tests.
            let (w, _) = stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .expect("sets have at least one way");
            return w;
        }
        view.allowed_ways()
            .min_by_key(|&w| stamps[w])
            // infallible: the hierarchy never requests a victim from an
            // all-protected set (the oracle wrapper caps protections).
            .expect("victim candidates must be non-empty")
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
    fn evicts_oldest() {
        let mut p = Lru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        p.on_hit(0, 0, &ctx(10)); // refresh way 0
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1111,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(11)), 1);
    }

    #[test]
    fn respects_allowed_mask() {
        let mut p = Lru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        // Way 0 is oldest but masked out.
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1110,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(9)), 1);
    }

    #[test]
    fn stack_property_holds_under_hits() {
        // LRU inclusion property sanity: hitting never changes relative
        // order of untouched ways.
        let mut p = Lru::new(1, 3);
        p.on_fill(0, 0, &ctx(0));
        p.on_fill(0, 1, &ctx(1));
        p.on_fill(0, 2, &ctx(2));
        p.on_hit(0, 1, &ctx(3));
        assert!(p.stamp(0, 0) < p.stamp(0, 2));
        assert!(p.stamp(0, 2) < p.stamp(0, 1));
    }
}
