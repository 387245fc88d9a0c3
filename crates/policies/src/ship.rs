//! SHiP-PC: Signature-based Hit Predictor (Wu et al., MICRO 2011).
//!
//! Each fill is tagged with a signature derived from the fill PC. A table
//! of saturating counters (the SHCT) learns, per signature, whether fills
//! made by that signature tend to be re-referenced. Fills whose signature
//! has a zero counter are inserted with the distant RRPV (likely dead);
//! everything else inserts like SRRIP. SHiP is one of the "recent
//! proposals" whose sharing-awareness the paper characterizes: it is
//! PC-correlated but not sharing-aware.

use llc_sim::{AccessCtx, GenerationEnd, ReplacementPolicy, SetView};

use crate::rrip::{RRPV_LONG, RRPV_MAX};

/// Number of SHCT entries (16K, as in the SHiP paper).
pub const SHCT_ENTRIES: usize = 16 * 1024;

/// Maximum SHCT counter value (3-bit counters).
pub const SHCT_MAX: u8 = 7;

/// SHiP-PC replacement.
///
/// Per-line state (RRPV, fill signature, reuse outcome) lives in one
/// set-blocked arena: each set owns a `4 * ways`-byte block laid out as
/// `[rrpv; ways][outcome; ways][sig as 2 LE bytes; ways]`. Every hook
/// therefore touches a single ~cache-line-sized region per set (separate
/// per-field vectors cost three scattered lines per access), and the RRPV
/// row is contiguous, so victim selection reuses the RRIP family's SWAR
/// scan.
#[derive(Debug, Clone)]
pub struct Ship {
    ways: usize,
    /// `4 * ways` bytes per set.
    stride: usize,
    arena: Vec<u8>,
    shct: Vec<u8>,
}

impl Ship {
    /// Creates a SHiP-PC policy for `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        let stride = 4 * ways;
        let mut arena = vec![0u8; sets * stride];
        for set in 0..sets {
            // Empty ways never consult the policy; distant for definiteness.
            arena[set * stride..set * stride + ways].fill(RRPV_MAX);
        }
        Ship {
            ways,
            stride,
            arena,
            shct: vec![1; SHCT_ENTRIES],
        }
    }

    fn signature(ctx: &AccessCtx) -> u16 {
        (ctx.pc.hash() % SHCT_ENTRIES as u64) as u16
    }

    /// The set's arena block: one bounds check per hook.
    #[inline]
    fn block(&mut self, set: usize) -> &mut [u8] {
        let base = set * self.stride;
        &mut self.arena[base..base + self.stride]
    }

    #[inline]
    fn sig_at(&self, set: usize, way: usize) -> u16 {
        let i = set * self.stride + 2 * self.ways + 2 * way;
        u16::from_le_bytes([self.arena[i], self.arena[i + 1]])
    }

    /// Current SHCT counter for a signature (test hook).
    pub fn shct(&self, sig: u16) -> u8 {
        self.shct[sig as usize]
    }

    /// Signature of the line currently in `(set, way)` (test hook).
    pub fn line_signature(&self, set: usize, way: usize) -> u16 {
        self.sig_at(set, way)
    }

    /// RRPV of the line currently in `(set, way)` (test hook).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.arena[set * self.stride + way]
    }
}

impl ReplacementPolicy for Ship {
    fn name(&self) -> String {
        "SHiP".into()
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        let sig = Self::signature(ctx);
        let rrpv = if self.shct[sig as usize] == 0 {
            RRPV_MAX
        } else {
            RRPV_LONG
        };
        let ways = self.ways;
        let block = self.block(set);
        block[way] = rrpv;
        block[ways + way] = 0;
        let i = 2 * ways + 2 * way;
        block[i..i + 2].copy_from_slice(&sig.to_le_bytes());
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        let ways = self.ways;
        let block = self.block(set);
        block[way] = 0;
        if block[ways + way] == 0 {
            block[ways + way] = 1;
            let i = 2 * ways + 2 * way;
            let sig = u16::from_le_bytes([block[i], block[i + 1]]);
            let c = &mut self.shct[sig as usize];
            *c = (*c + 1).min(SHCT_MAX);
        }
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, _gen: &GenerationEnd) {
        if self.arena[set * self.stride + self.ways + way] == 0 {
            let sig = self.sig_at(set, way);
            let c = &mut self.shct[sig as usize];
            *c = c.saturating_sub(1);
        }
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        let rrpv = &mut self.arena[set * self.stride..set * self.stride + self.ways];
        crate::rrip::choose_rrip_victim(rrpv, view)
    }

    /// Victims come from this policy's own state; `lines` is never read.
    fn needs_line_views(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx_at, full_view};
    use llc_sim::{BlockAddr, CoreId, EvictCause, Pc};

    fn gen_end(hits: u32) -> GenerationEnd {
        GenerationEnd {
            block: BlockAddr::new(1),
            set: 0,
            fill_pc: Pc::new(0x400),
            fill_core: CoreId::new(0),
            fill_time: 0,
            end_time: 10,
            sharer_mask: 1,
            writer_mask: 0,
            hits,
            hits_by_non_filler: 0,
            writes: 0,
            cause: EvictCause::Replacement,
        }
    }

    #[test]
    fn dead_signature_inserts_distant() {
        let mut p = Ship::new(1, 2);
        let c = ctx_at(0, 1, 0xabc);
        let sig = Ship::signature(&c);
        // Drive the signature's counter to zero with dead generations.
        for t in 0..8 {
            p.on_fill(0, 0, &ctx_at(t, t, 0xabc));
            p.on_evict(0, 0, &gen_end(0));
        }
        assert_eq!(p.shct(sig), 0);
        p.on_fill(0, 0, &c);
        assert_eq!(p.rrpv(0, 0), RRPV_MAX);
    }

    #[test]
    fn live_signature_inserts_long() {
        let mut p = Ship::new(1, 2);
        let c = ctx_at(0, 1, 0xdef);
        p.on_fill(0, 0, &c);
        assert_eq!(p.rrpv(0, 0), RRPV_LONG); // initial counter is 1
        p.on_hit(0, 0, &c);
        assert_eq!(p.rrpv(0, 0), 0);
        let sig = Ship::signature(&c);
        assert_eq!(p.shct(sig), 2); // hit incremented the counter
    }

    #[test]
    fn outcome_increments_only_once_per_generation() {
        let mut p = Ship::new(1, 2);
        let c = ctx_at(0, 1, 0x123);
        let sig = Ship::signature(&c);
        p.on_fill(0, 0, &c);
        for t in 0..5 {
            p.on_hit(0, 0, &ctx_at(t, 1, 0x123));
        }
        assert_eq!(p.shct(sig), 2);
    }

    #[test]
    fn eviction_without_reuse_decrements() {
        let mut p = Ship::new(1, 2);
        let c = ctx_at(0, 1, 0x777);
        let sig = Ship::signature(&c);
        let before = p.shct(sig);
        p.on_fill(0, 0, &c);
        p.on_evict(0, 0, &gen_end(0));
        assert_eq!(p.shct(sig), before - 1);
    }

    #[test]
    fn victim_selection_ages_like_rrip() {
        let mut p = Ship::new(1, 2);
        p.on_fill(0, 0, &ctx_at(0, 1, 0x1));
        p.on_fill(0, 1, &ctx_at(1, 2, 0x2));
        p.on_hit(0, 0, &ctx_at(2, 1, 0x1));
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx_at(3, 3, 0x3)), 1);
    }
}
