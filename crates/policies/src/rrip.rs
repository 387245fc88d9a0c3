//! The RRIP family: SRRIP, BRRIP and set-dueling DRRIP.
//!
//! Re-Reference Interval Prediction (Jaleel et al., ISCA 2010) attaches an
//! M-bit re-reference prediction value (RRPV) to each line. `0` means
//! "re-reference expected soon", `2^M - 1` means "re-reference expected in
//! the distant future". Victims are lines with the maximum RRPV; if none
//! exists, all RRPVs in the set are incremented until one appears.

use llc_sim::{splitmix64, AccessCtx, ReplacementPolicy, SetView};

use crate::duel::{SetDuel, ThreadAwareDuel};

/// Number of RRPV bits (the paper family's standard M = 2).
pub const RRPV_BITS: u32 = 2;

/// Maximum ("distant") RRPV.
pub const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;

/// "Long" insertion RRPV used by SRRIP (distant minus one).
pub const RRPV_LONG: u8 = RRPV_MAX - 1;

/// BRRIP inserts with the long RRPV once every `BRRIP_EPSILON` fills and
/// with the distant RRPV otherwise.
pub const BRRIP_EPSILON: u64 = 32;

/// Which insertion rule an RRIP instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RripFlavor {
    /// Static RRIP: always insert with the long RRPV.
    Static,
    /// Bimodal RRIP: insert distant except for 1-in-32 fills.
    Bimodal,
    /// Dynamic RRIP: set-duel between SRRIP and BRRIP.
    Dynamic,
    /// Thread-aware dynamic RRIP: one PSEL per thread (TA-DRRIP).
    ThreadAware,
}

/// SRRIP / BRRIP / DRRIP replacement.
#[derive(Debug, Clone)]
pub struct Rrip {
    flavor: RripFlavor,
    ways: usize,
    rrpv: Vec<u8>,
    duel: SetDuel,
    ta_duel: Option<ThreadAwareDuel>,
    /// Per-set bimodal fill counters: the 1-in-32 "long" insertions of a
    /// set depend only on that set's own fill history, so BRRIP stays
    /// per-set-partitionable.
    fill_seq: Vec<u64>,
    seed: u64,
}

impl Rrip {
    /// Creates an SRRIP policy.
    pub fn srrip(sets: usize, ways: usize) -> Self {
        Self::new(RripFlavor::Static, sets, ways, 0)
    }

    /// Creates a BRRIP policy with a deterministic bimodal stream.
    pub fn brrip(sets: usize, ways: usize, seed: u64) -> Self {
        Self::new(RripFlavor::Bimodal, sets, ways, seed)
    }

    /// Creates a set-dueling DRRIP policy.
    pub fn drrip(sets: usize, ways: usize, seed: u64) -> Self {
        Self::new(RripFlavor::Dynamic, sets, ways, seed)
    }

    /// Creates a thread-aware DRRIP policy (TA-DRRIP): per-thread PSELs.
    pub fn ta_drrip(sets: usize, ways: usize, threads: usize, seed: u64) -> Self {
        let mut p = Self::new(RripFlavor::ThreadAware, sets, ways, seed);
        p.ta_duel = Some(ThreadAwareDuel::new(sets, threads));
        p
    }

    fn new(flavor: RripFlavor, sets: usize, ways: usize, seed: u64) -> Self {
        Rrip {
            flavor,
            ways,
            // Empty ways never consult the policy, so initial values are
            // irrelevant; use distant for definiteness.
            rrpv: vec![RRPV_MAX; sets * ways],
            duel: SetDuel::new(sets),
            ta_duel: None,
            fill_seq: vec![0; sets],
            seed,
        }
    }

    /// Current RRPV of a line (test hook).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.rrpv[set * self.ways + way]
    }

    fn bimodal_long(&mut self, set: usize) -> bool {
        self.fill_seq[set] += 1;
        let lane = splitmix64(self.seed ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        splitmix64(lane ^ self.fill_seq[set]).is_multiple_of(BRRIP_EPSILON)
    }

    fn insertion_rrpv(&mut self, set: usize, thread: usize) -> u8 {
        let bimodal = match self.flavor {
            RripFlavor::Static => false,
            RripFlavor::Bimodal => true,
            RripFlavor::Dynamic => self.duel.use_b(set),
            RripFlavor::ThreadAware => {
                // infallible: ta_duel is always built for this flavor.
                self.ta_duel
                    .as_ref()
                    .expect("TA duel present")
                    .use_b(set, thread)
            }
        };
        if bimodal {
            if self.bimodal_long(set) {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        }
    }
}

/// RRIP victim selection over one set's RRPV row: the way with the maximum
/// ("distant") RRPV, aging every line until an allowed way reaches it.
///
/// The textbook formulation rescans after each unit increment; since aging
/// is a uniform `+1` clamped at [`RRPV_MAX`], the number of rounds is just
/// the deficit of the most-distant allowed way, so one aging pass with that
/// delta produces bit-identical RRPVs and the identical victim (the first
/// allowed way, in way order, whose original RRPV was maximal).
/// 0x01 in every byte: one flag bit per RRPV lane of a SWAR word.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// Returns `0x01` flags in the lanes of `x` (8 RRPV bytes, each ≤
/// [`RRPV_MAX`]) whose value is exactly `RRPV_MAX` (binary `11`).
#[inline]
fn lanes_at_max(x: u64) -> u64 {
    x & (x >> 1) & LANE_LSB
}

#[inline]
pub(crate) fn choose_rrip_victim(rrpv: &mut [u8], view: &SetView<'_>) -> usize {
    // Dense SWAR path: with every way allowed and 2-bit RRPVs, a u64 word
    // holds 8 lanes, "some lane is distant" is three ALU ops, and the
    // common case (a distant way already exists) decides the victim
    // without touching memory again. Byte-loop formulations of this scan
    // compile to either serial bit tests or variable-shift SIMD, both an
    // order of magnitude slower per miss.
    if crate::full_row_mask(view, rrpv.len()) && rrpv.len().is_multiple_of(8) {
        let mut any2 = false;
        let mut any1 = false;
        for (c, chunk) in rrpv.chunks_exact(8).enumerate() {
            // infallible: chunks_exact yields 8-byte windows.
            let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let f = lanes_at_max(x);
            if f != 0 {
                return c * 8 + f.trailing_zeros() as usize / 8;
            }
            any2 |= (x >> 1) & !x & LANE_LSB != 0;
            any1 |= x & !(x >> 1) & LANE_LSB != 0;
        }
        // No distant way: age every lane by the deficit of the current
        // maximum, which lands the max lanes exactly on RRPV_MAX (so the
        // add needs no clamp), then take the first such lane.
        let delta = if any2 {
            1
        } else if any1 {
            2
        } else {
            3
        };
        let mut victim = None;
        for (c, chunk) in rrpv.chunks_exact_mut(8).enumerate() {
            // infallible: chunks_exact_mut yields 8-byte windows.
            let x = u64::from_le_bytes((&*chunk).try_into().expect("8-byte chunk"));
            let aged = x + delta * LANE_LSB;
            chunk.copy_from_slice(&aged.to_le_bytes());
            if victim.is_none() {
                let f = lanes_at_max(aged);
                if f != 0 {
                    victim = Some(c * 8 + f.trailing_zeros() as usize / 8);
                }
            }
        }
        return victim.expect("the maximal lane reaches RRPV_MAX after aging");
    }

    // Masked (wrapper) or odd-width path: plain scalar scan.
    let allowed = view.allowed;
    let mut max_allowed = 0u8;
    for (w, &v) in rrpv.iter().enumerate() {
        if allowed >> w & 1 != 0 {
            max_allowed = max_allowed.max(v);
        }
    }
    let delta = RRPV_MAX - max_allowed;
    if delta > 0 {
        for v in rrpv.iter_mut() {
            *v = (*v + delta).min(RRPV_MAX);
        }
    }
    for (w, &v) in rrpv.iter().enumerate() {
        if allowed >> w & 1 != 0 && v == RRPV_MAX {
            return w;
        }
    }
    unreachable!("an allowed way reaches RRPV_MAX after aging");
}

impl ReplacementPolicy for Rrip {
    fn name(&self) -> String {
        match self.flavor {
            RripFlavor::Static => "SRRIP".into(),
            RripFlavor::Bimodal => "BRRIP".into(),
            RripFlavor::Dynamic => "DRRIP".into(),
            RripFlavor::ThreadAware => "TA-DRRIP".into(),
        }
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        // Static (SRRIP) is the unconditional fast path: no dueling state,
        // no bimodal stream — keep the hot insertion free of the generic
        // machinery below.
        if self.flavor == RripFlavor::Static {
            self.rrpv[set * self.ways + way] = RRPV_LONG;
            return;
        }
        match self.flavor {
            RripFlavor::Dynamic => self.duel.on_miss(set),
            RripFlavor::ThreadAware => {
                // infallible: ta_duel is always built for this flavor.
                self.ta_duel
                    .as_mut()
                    .expect("TA duel present")
                    .on_miss(set, ctx.core.index());
            }
            _ => {}
        }
        let ins = self.insertion_rrpv(set, ctx.core.index());
        self.rrpv[set * self.ways + way] = ins;
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        // Hit promotion policy: promote to "near-immediate" (RRPV = 0).
        self.rrpv[set * self.ways + way] = 0;
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        let rrpv = &mut self.rrpv[set * self.ways..(set + 1) * self.ways];
        choose_rrip_victim(rrpv, view)
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
    fn srrip_inserts_long_and_promotes_on_hit() {
        let mut p = Rrip::srrip(1, 4);
        p.on_fill(0, 2, &ctx(0));
        assert_eq!(p.rrpv(0, 2), RRPV_LONG);
        p.on_hit(0, 2, &ctx(1));
        assert_eq!(p.rrpv(0, 2), 0);
    }

    #[test]
    fn victim_is_distant_line_after_aging() {
        let mut p = Rrip::srrip(1, 3);
        for w in 0..3 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        p.on_hit(0, 1, &ctx(3)); // way 1 becomes RRPV 0
        let lines = full_view(3);
        let view = SetView {
            lines: &lines,
            allowed: 0b111,
        };
        let v = p.choose_victim(0, &view, &ctx(4));
        // Ways 0 and 2 sit at RRPV_LONG; one aging round takes them to
        // RRPV_MAX; way 1 is younger.
        assert!(v == 0 || v == 2);
        assert_eq!(p.rrpv(0, 1), 1); // aged from 0 by one round
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Rrip::brrip(1, 1, 7);
        let mut distant = 0;
        for t in 0..1000 {
            p.on_fill(0, 0, &ctx(t));
            if p.rrpv(0, 0) == RRPV_MAX {
                distant += 1;
            }
        }
        // Expect roughly 1 - 1/32 distant insertions.
        assert!(distant > 900, "only {distant}/1000 distant insertions");
        assert!(distant < 1000, "bimodal long insertions never happened");
    }

    #[test]
    fn victim_respects_allowed_mask() {
        let mut p = Rrip::srrip(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &ctx(w as u64));
        }
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b0100,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(5)), 2);
    }

    #[test]
    fn drrip_leader_sets_use_their_team() {
        let sets = 64;
        let mut p = Rrip::drrip(sets, 2, 3);
        // Find an SRRIP (team A) leader and verify long insertion.
        let duel = SetDuel::new(sets);
        let a_leader = (0..sets)
            .find(|&s| duel.team(s) == crate::duel::Team::LeaderA)
            .unwrap();
        p.on_fill(a_leader, 0, &ctx(0));
        assert_eq!(p.rrpv(a_leader, 0), RRPV_LONG);
    }

    #[test]
    fn aging_terminates_with_restricted_mask() {
        let mut p = Rrip::srrip(1, 2);
        p.on_fill(0, 0, &ctx(0));
        p.on_fill(0, 1, &ctx(1));
        p.on_hit(0, 0, &ctx(2));
        p.on_hit(0, 1, &ctx(3)); // both at RRPV 0
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b01,
        };
        // Needs 3 aging rounds; must not loop forever and must return the
        // only allowed way.
        assert_eq!(p.choose_victim(0, &view, &ctx(4)), 0);
    }
}
