//! The DIP family: LIP, BIP and set-dueling DIP (Qureshi et al., ISCA
//! 2007), built on an LRU recency stack.

use llc_sim::{splitmix64, AccessCtx, ReplacementPolicy, SetView};

use crate::duel::SetDuel;

/// BIP promotes a fill to MRU once every `BIP_EPSILON` fills; all other
/// fills land in the LRU position.
pub const BIP_EPSILON: u64 = 32;

/// Which insertion rule a DIP-family instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DipFlavor {
    /// LRU-Insertion Policy: every fill lands in the LRU position.
    Lip,
    /// Bimodal Insertion Policy: MRU for 1-in-32 fills, LRU otherwise.
    Bip,
    /// Dynamic Insertion Policy: set-duel between LRU and BIP.
    Dip,
}

/// LIP / BIP / DIP replacement over a timestamp LRU stack.
#[derive(Debug, Clone)]
pub struct Dip {
    flavor: DipFlavor,
    ways: usize,
    stamps: Vec<u64>,
    clock: u64,
    duel: SetDuel,
    /// Per-set bimodal fill counters (see `Rrip::fill_seq`): BIP's 1-in-32
    /// MRU promotions in a set depend only on that set's fill history.
    fill_seq: Vec<u64>,
    seed: u64,
}

impl Dip {
    /// Creates a LIP policy.
    pub fn lip(sets: usize, ways: usize) -> Self {
        Self::new(DipFlavor::Lip, sets, ways, 0)
    }

    /// Creates a BIP policy.
    pub fn bip(sets: usize, ways: usize, seed: u64) -> Self {
        Self::new(DipFlavor::Bip, sets, ways, seed)
    }

    /// Creates a set-dueling DIP policy.
    #[allow(clippy::self_named_constructors)] // `Dip::dip` mirrors `Dip::bip`
    pub fn dip(sets: usize, ways: usize, seed: u64) -> Self {
        Self::new(DipFlavor::Dip, sets, ways, seed)
    }

    fn new(flavor: DipFlavor, sets: usize, ways: usize, seed: u64) -> Self {
        Dip {
            flavor,
            ways,
            stamps: vec![0; sets * ways],
            clock: 1,
            duel: SetDuel::new(sets),
            fill_seq: vec![0; sets],
            seed,
        }
    }

    fn bip_mru(&mut self, set: usize) -> bool {
        self.fill_seq[set] += 1;
        let lane = splitmix64(self.seed ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        splitmix64(lane ^ self.fill_seq[set]).is_multiple_of(BIP_EPSILON)
    }

    /// The recency stamp of `(set, way)` (test hook).
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.stamps[set * self.ways + way]
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> String {
        match self.flavor {
            DipFlavor::Lip => "LIP".into(),
            DipFlavor::Bip => "BIP".into(),
            DipFlavor::Dip => "DIP".into(),
        }
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        if self.flavor == DipFlavor::Dip {
            self.duel.on_miss(set);
        }
        let lru_insert = match self.flavor {
            DipFlavor::Lip => true,
            DipFlavor::Bip => !self.bip_mru(set),
            DipFlavor::Dip => {
                // Team A = LRU (MRU insertion), team B = BIP.
                if self.duel.use_b(set) {
                    !self.bip_mru(set)
                } else {
                    false
                }
            }
        };
        self.clock += 1;
        // LRU-position insertion: a stamp of 0 is older than every live
        // line (live stamps are >= 1), so the line is the next victim
        // unless it is re-referenced first.
        self.stamps[set * self.ways + way] = if lru_insert { 0 } else { self.clock };
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
        view.allowed_ways()
            .min_by_key(|&w| self.stamps[set * self.ways + w])
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
    fn lip_inserted_line_is_next_victim() {
        let mut p = Dip::lip(1, 4);
        for w in 0..3 {
            // Simulate MRU fills by hitting right after fill.
            p.on_fill(0, w, &ctx(w as u64));
            p.on_hit(0, w, &ctx(10 + w as u64));
        }
        p.on_fill(0, 3, &ctx(20)); // LIP fill: LRU position
        let lines = full_view(4);
        let view = SetView {
            lines: &lines,
            allowed: 0b1111,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(21)), 3);
    }

    #[test]
    fn lip_hit_rescues_line() {
        let mut p = Dip::lip(1, 2);
        p.on_fill(0, 0, &ctx(0));
        p.on_fill(0, 1, &ctx(1));
        p.on_hit(0, 1, &ctx(2));
        let lines = full_view(2);
        let view = SetView {
            lines: &lines,
            allowed: 0b11,
        };
        assert_eq!(p.choose_victim(0, &view, &ctx(3)), 0);
    }

    #[test]
    fn bip_occasionally_inserts_mru() {
        let mut p = Dip::bip(1, 2, 11);
        let mut mru = 0;
        for t in 0..1000 {
            p.on_fill(0, 0, &ctx(t));
            if p.stamp(0, 0) != 0 {
                mru += 1;
            }
        }
        assert!(mru > 5, "BIP never promoted ({mru})");
        assert!(mru < 100, "BIP promoted too often ({mru})");
    }

    #[test]
    fn dip_team_a_leader_inserts_mru() {
        let sets = 64;
        let mut p = Dip::dip(sets, 2, 5);
        let duel = SetDuel::new(sets);
        let a = (0..sets)
            .find(|&s| duel.team(s) == crate::duel::Team::LeaderA)
            .unwrap();
        p.on_fill(a, 0, &ctx(0));
        assert_ne!(p.stamp(a, 0), 0, "LRU-team leader must insert at MRU");
    }
}
