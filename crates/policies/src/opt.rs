//! Belady's optimal replacement (OPT / MIN).
//!
//! OPT evicts the line whose next reference lies farthest in the future.
//! It needs future knowledge: the experiment runner performs a pre-pass
//! over the (policy-independent) LLC reference stream, computes for every
//! access the stream index of the *next* access to the same block, and
//! feeds it to the policy through [`llc_sim::Aux::next_use`].
//!
//! Because the simulated LLC allocates on every demand miss, this is OPT
//! *without bypass* — optimal among all non-bypassing policies, which is
//! the standard comparison point for replacement studies (every evaluated
//! policy is likewise non-bypassing). The paper calls OPT "naturally
//! sharing-aware": a block about to be re-referenced by another core has a
//! near next-use and is retained automatically.

use llc_sim::{AccessCtx, ReplacementPolicy, SetView};

/// Belady's OPT, driven by next-use annotations.
#[derive(Debug, Clone)]
pub struct Opt {
    ways: usize,
    next_use: Vec<u64>,
}

/// Sentinel next-use for "never referenced again".
const NEVER: u64 = u64::MAX;

impl Opt {
    /// Creates an OPT policy for `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        Opt {
            ways,
            next_use: vec![NEVER; sets * ways],
        }
    }

    fn record(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        debug_assert!(
            ctx.aux.next_use.is_none_or(|n| n > ctx.time),
            "next use must lie in the future"
        );
        self.next_use[set * self.ways + way] = ctx.aux.next_use.unwrap_or(NEVER);
    }

    /// The recorded next use of `(set, way)` (test hook).
    pub fn next_use(&self, set: usize, way: usize) -> u64 {
        self.next_use[set * self.ways + way]
    }
}

impl ReplacementPolicy for Opt {
    fn name(&self) -> String {
        "OPT".into()
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.record(set, way, ctx);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.record(set, way, ctx);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        view.allowed_ways()
            .max_by_key(|&w| self.next_use[set * self.ways + w])
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
    use crate::testutil::{ctx_aux, full_view};

    #[test]
    fn evicts_farthest_next_use() {
        let mut p = Opt::new(1, 3);
        p.on_fill(0, 0, &ctx_aux(0, Some(10), None));
        p.on_fill(0, 1, &ctx_aux(1, Some(100), None));
        p.on_fill(0, 2, &ctx_aux(2, Some(50), None));
        let lines = full_view(3);
        let view = SetView {
            lines: &lines,
            allowed: 0b111,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx_aux(3, None, None)), 1);
    }

    #[test]
    fn never_referenced_again_is_preferred_victim() {
        let mut p = Opt::new(1, 2);
        p.on_fill(0, 0, &ctx_aux(0, Some(5), None));
        p.on_fill(0, 1, &ctx_aux(1, None, None));
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx_aux(2, None, None)), 1);
        assert_eq!(p.next_use(0, 1), u64::MAX);
    }

    #[test]
    fn hit_updates_next_use() {
        let mut p = Opt::new(1, 2);
        p.on_fill(0, 0, &ctx_aux(0, Some(3), None));
        p.on_fill(0, 1, &ctx_aux(1, Some(4), None));
        // Way 0's next access happens and its following use is far away.
        p.on_hit(0, 0, &ctx_aux(3, Some(1000), None));
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx_aux(5, None, None)), 0);
    }

    #[test]
    fn respects_allowed_mask() {
        let mut p = Opt::new(1, 3);
        p.on_fill(0, 0, &ctx_aux(0, None, None)); // farthest
        p.on_fill(0, 1, &ctx_aux(1, Some(10), None));
        p.on_fill(0, 2, &ctx_aux(2, Some(20), None));
        let lines = full_view(3);
        let view = SetView {
            lines: &lines,
            allowed: 0b110,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx_aux(3, None, None)), 2);
    }
}
