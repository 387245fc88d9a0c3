//! The replacement-policy interface of the shared LLC.
//!
//! Concrete policies (LRU, RRIP family, SHiP, Belady's OPT, the
//! sharing-aware oracle wrapper, …) live in the `llc-policies` crate and
//! implement [`ReplacementPolicy`]. The trait is defined here, in the
//! simulator crate, so that the LLC can be generic over any policy without a
//! dependency cycle.

use crate::addr::{AccessKind, BlockAddr, CoreId, Pc};
use crate::llc::GenerationEnd;

/// Side-channel information attached to a single LLC access by the
/// experiment runner.
///
/// Realistic policies ignore it. Offline policies consume it:
///
/// * [`Aux::next_use`] — the LLC-access index of the *next* reference to
///   this block in the (policy-independent) LLC reference stream, used by
///   Belady's OPT.
/// * [`Aux::oracle_shared`] — whether, in the oracle pre-pass run of the
///   base policy, the generation containing this access turned out to be
///   shared (touched by ≥ 2 distinct cores). Used by the sharing-aware
///   oracle wrapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aux {
    /// LLC-access index of the next reference to this block, if any.
    pub next_use: Option<u64>,
    /// Oracle answer: will this block be shared during its residency?
    pub oracle_shared: Option<bool>,
}

/// Everything a policy may inspect about the LLC access being processed.
#[derive(Debug, Clone, Copy)]
pub struct AccessCtx {
    /// Block being accessed.
    pub block: BlockAddr,
    /// Program counter of the instruction that triggered the access (for a
    /// fill, this is the fill-triggering instruction's PC, exactly the
    /// signature the paper's PC-indexed predictor uses).
    pub pc: Pc,
    /// Core issuing the access.
    pub core: CoreId,
    /// Load or store.
    pub kind: AccessKind,
    /// Index of this access in the LLC reference stream (a monotonically
    /// increasing logical clock).
    pub time: u64,
    /// Offline side-channel (next-use for OPT, oracle bit for the wrapper).
    pub aux: Aux,
}

/// A policy's read-only view of one LLC line during victim selection.
#[derive(Debug, Clone, Copy)]
pub struct LineView {
    /// Block currently cached in this way.
    pub block: BlockAddr,
    /// Number of distinct cores that have touched the line during the
    /// current generation (≥ 1 for a valid line).
    pub sharer_count: u32,
    /// Whether the line has been written during the current generation.
    pub dirty: bool,
}

/// A policy's read-only view of the candidate set during victim selection.
///
/// Only *valid* ways appear in `allowed`; the cache fills invalid ways
/// itself without consulting the policy.
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a> {
    /// One entry per way. Entries for invalid ways contain unspecified data
    /// and are excluded from `allowed`.
    pub lines: &'a [LineView],
    /// Bit mask of the ways the policy may evict (bit `w` set ⇒ way `w` is
    /// a candidate). Guaranteed non-zero.
    pub allowed: u64,
}

impl SetView<'_> {
    /// Iterates over the indices of the allowed ways in ascending order.
    ///
    /// Bounded by the mask's highest set bit rather than `lines.len()`
    /// (which may be zero — see
    /// [`ReplacementPolicy::needs_line_views`]). The indexed filter keeps
    /// iterations independent; a pop-lowest-bit loop would chain every
    /// step on the previous mask value and serialize the victim scan.
    pub fn allowed_ways(&self) -> impl Iterator<Item = usize> + '_ {
        let mask = self.allowed;
        let n = 64 - mask.leading_zeros() as usize;
        (0..n).filter(move |w| mask & (1u64 << w) != 0)
    }

    /// Returns `true` if way `w` is an eviction candidate.
    pub fn is_allowed(&self, w: usize) -> bool {
        self.allowed & (1u64 << w) != 0
    }
}

/// An LLC replacement policy.
///
/// The LLC calls the hooks in this order:
///
/// * on a **hit**: [`ReplacementPolicy::on_hit`];
/// * on a **miss to a set with an invalid way**: [`ReplacementPolicy::on_fill`]
///   for the chosen invalid way (no victim consultation);
/// * on a **miss to a full set**: [`ReplacementPolicy::choose_victim`], then
///   [`ReplacementPolicy::on_evict`] for the victim, then
///   [`ReplacementPolicy::on_fill`] for the same way.
///
/// Policies that keep per-line state should size it as `sets * ways` via
/// the constructor arguments they take in `llc-policies`.
pub trait ReplacementPolicy {
    /// Short human-readable policy name, e.g. `"LRU"` or `"Oracle(SRRIP)"`.
    fn name(&self) -> String;

    /// Called when `block` is filled into `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Called when an access hits `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// Called when the generation in `(set, way)` ends (replacement victim,
    /// inclusive back-invalidation, or end-of-simulation flush). Policies
    /// that learn from generation outcomes (SHiP, the predictor-driven
    /// wrapper) train here.
    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, gen: &GenerationEnd) {
        let _ = (set, way, gen);
    }

    /// Chooses the way to evict among `view.allowed` in `set`.
    ///
    /// Implementations must return an allowed way; the cache asserts this in
    /// debug builds.
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, ctx: &AccessCtx) -> usize;

    /// Declares whether [`ReplacementPolicy::choose_victim`] reads
    /// [`SetView::lines`].
    ///
    /// Gathering the per-line views (sharer counts, dirty bits, block
    /// reconstruction for every way) is the most expensive part of the
    /// cache's miss path, yet most policies pick victims from their own
    /// state and only use [`SetView::allowed`]. A policy that returns
    /// `false` is handed a view with an **empty** `lines` slice and the
    /// cache skips the gather entirely. The default is `true` — the
    /// conservative answer. Wrapper policies must forward their base's
    /// answer unless they read `lines` themselves.
    fn needs_line_views(&self) -> bool {
        true
    }
}

impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        (**self).on_fill(set, way, ctx)
    }
    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        (**self).on_hit(set, way, ctx)
    }
    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, gen: &GenerationEnd) {
        (**self).on_evict(set, way, gen)
    }
    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, ctx: &AccessCtx) -> usize {
        (**self).choose_victim(set, view, ctx)
    }
    fn needs_line_views(&self) -> bool {
        (**self).needs_line_views()
    }
}

/// Provides [`Aux`] data for each LLC access.
///
/// The experiment runner installs a provider computed in a pre-pass (OPT
/// next-use chains, oracle sharing outcomes). The default provider returns
/// [`Aux::default`] and costs nothing.
pub trait AuxProvider {
    /// Returns the side-channel data for the LLC access with stream index
    /// `time` to `block`.
    fn aux_for(&mut self, time: u64, block: BlockAddr) -> Aux;
}

/// The do-nothing provider used for realistic (online) policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAux;

impl AuxProvider for NoAux {
    fn aux_for(&mut self, _time: u64, _block: BlockAddr) -> Aux {
        Aux::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_view_allowed_iteration() {
        let lines = vec![
            LineView {
                block: BlockAddr::new(1),
                sharer_count: 1,
                dirty: false
            };
            8
        ];
        let view = SetView {
            lines: &lines,
            allowed: 0b1010_0001,
        };
        let ways: Vec<usize> = view.allowed_ways().collect();
        assert_eq!(ways, vec![0, 5, 7]);
        assert!(view.is_allowed(0));
        assert!(!view.is_allowed(1));
        assert!(view.is_allowed(7));
    }

    #[test]
    fn no_aux_returns_default() {
        let mut p = NoAux;
        let aux = p.aux_for(7, BlockAddr::new(42));
        assert_eq!(aux, Aux::default());
        assert!(aux.next_use.is_none());
        assert!(aux.oracle_shared.is_none());
    }
}
