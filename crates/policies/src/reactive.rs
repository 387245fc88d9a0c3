//! A realistic, prediction-free sharing-aware policy: reactive
//! protection.
//!
//! The inclusive-directory LLC already *knows* which resident lines have
//! been touched by ≥ 2 cores — no prediction needed. [`ReactiveWrap`]
//! restricts victim selection to lines that are (so far) private, falling
//! back to the base policy when every candidate is already shared.
//!
//! This is the natural "what can hardware do *today*" point between the
//! oblivious base policies and the future-knowing oracle: it protects
//! blocks only *after* their sharing has started, so it captures long
//! multi-visit sharing (read-only tables, migratory chains) but not the
//! first cross-core visit — the part only a fill-time predictor could
//! save. The gap ReactiveWrap leaves to the oracle quantifies exactly how
//! much of the oracle's gain requires prediction.

use llc_sim::{AccessCtx, GenerationEnd, ReplacementPolicy, SetView};

/// Reactive sharing protection around a base policy.
#[derive(Debug, Clone)]
pub struct ReactiveWrap<P> {
    base: P,
}

impl<P: ReplacementPolicy> ReactiveWrap<P> {
    /// Wraps `base`.
    pub fn new(base: P) -> Self {
        ReactiveWrap { base }
    }

    /// The wrapped base policy.
    pub fn base(&self) -> &P {
        &self.base
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for ReactiveWrap<P> {
    fn name(&self) -> String {
        format!("Reactive({})", self.base.name())
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.base.on_fill(set, way, ctx);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.base.on_hit(set, way, ctx);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, gen: &GenerationEnd) {
        self.base.on_evict(set, way, gen);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, ctx: &AccessCtx) -> usize {
        let mut private_mask = 0u64;
        for w in view.allowed_ways() {
            if view.lines[w].sharer_count < 2 {
                private_mask |= 1u64 << w;
            }
        }
        let restricted = if private_mask != 0 {
            SetView {
                lines: view.lines,
                allowed: private_mask,
            }
        } else {
            *view
        };
        self.base.choose_victim(set, &restricted, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;
    use crate::testutil::ctx;
    use llc_sim::{BlockAddr, LineView};

    #[test]
    fn shields_currently_shared_lines() {
        let mut p = ReactiveWrap::new(Lru::new(1, 3));
        for w in 0..3 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        // Way 0 is oldest but has two sharers.
        let lines = vec![
            LineView {
                block: BlockAddr::new(0),
                sharer_count: 2,
                dirty: false,
            },
            LineView {
                block: BlockAddr::new(1),
                sharer_count: 1,
                dirty: false,
            },
            LineView {
                block: BlockAddr::new(2),
                sharer_count: 1,
                dirty: false,
            },
        ];
        let view = SetView {
            lines: &lines,
            allowed: 0b111,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(5)), 1);
    }

    #[test]
    fn falls_back_when_all_shared() {
        let mut p = ReactiveWrap::new(Lru::new(1, 2));
        p.on_fill(0, 0, &ctx(0));
        p.on_fill(0, 1, &ctx(1));
        let lines = vec![
            LineView {
                block: BlockAddr::new(0),
                sharer_count: 3,
                dirty: false,
            },
            LineView {
                block: BlockAddr::new(1),
                sharer_count: 2,
                dirty: false,
            },
        ];
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(2)), 0); // LRU order
    }

    #[test]
    fn name_wraps_base() {
        let p = ReactiveWrap::new(Lru::new(1, 1));
        assert_eq!(p.name(), "Reactive(LRU)");
    }
}
