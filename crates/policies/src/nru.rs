//! Not-recently-used replacement (one reference bit per line).

use llc_sim::{AccessCtx, ReplacementPolicy, SetView};

/// NRU: each line has one reference bit, set on fill and on hit. The victim
/// is the first candidate (in way order, starting from a per-set rotating
/// pointer) whose bit is clear; if every candidate's bit is set, all bits in
/// the set are cleared first.
#[derive(Debug, Clone)]
pub struct Nru {
    ways: usize,
    refbit: Vec<bool>,
    scan_ptr: Vec<u8>,
}

impl Nru {
    /// Creates an NRU policy for `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        Nru {
            ways,
            refbit: vec![false; sets * ways],
            scan_ptr: vec![0; sets],
        }
    }
}

impl ReplacementPolicy for Nru {
    fn name(&self) -> String {
        "NRU".into()
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.refbit[set * self.ways + way] = true;
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.refbit[set * self.ways + way] = true;
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        let base = set * self.ways;
        let start = self.scan_ptr[set] as usize % self.ways;
        for round in 0..2 {
            for i in 0..self.ways {
                let w = (start + i) % self.ways;
                if view.is_allowed(w) && !self.refbit[base + w] {
                    self.scan_ptr[set] = ((w + 1) % self.ways) as u8;
                    return w;
                }
            }
            if round == 0 {
                for w in 0..self.ways {
                    self.refbit[base + w] = false;
                }
            }
        }
        // infallible: the hierarchy never requests a victim from an
        // all-protected set (the oracle wrapper caps protections).
        view.allowed_ways()
            .next()
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
    fn prefers_unreferenced_way() {
        let mut p = Nru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        // All referenced: a victim request clears bits and picks the scan
        // start.
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1111,
        };
        let v1 = p.choose_victim(0, &view, &ctx(4));
        assert_eq!(v1, 0);
        // Now refill way 0 (sets its bit) and hit way 2.
        p.on_fill(0, 0, &ctx(5));
        p.on_hit(0, 2, &ctx(6));
        // Ways 1 and 3 have clear bits; scan pointer sits after way 0.
        let v2 = p.choose_victim(0, &view, &ctx(7));
        assert!(v2 == 1 || v2 == 3);
    }

    #[test]
    fn clears_bits_when_all_referenced() {
        let mut p = Nru::new(1, 2);
        p.on_fill(0, 0, &ctx(0));
        p.on_fill(0, 1, &ctx(1));
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        let v = p.choose_victim(0, &view, &ctx(2));
        assert!(v < 2);
        // After clearing, the other way must be victimizable without
        // another clear round.
        let v2 = p.choose_victim(0, &view, &ctx(3));
        assert_ne!(v, v2);
    }

    #[test]
    fn respects_allowed_mask_even_when_all_referenced() {
        let mut p = Nru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1000,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(9)), 3);
    }
}
