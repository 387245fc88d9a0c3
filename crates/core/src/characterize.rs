//! The paper's core characterization: decomposing LLC activity by sharing
//! class.
//!
//! [`SharingProfile`] rides along a simulation and aggregates every
//! finished generation into the quantities the paper's first half reports:
//! how many generations (and live-line time, and hits) belong to shared
//! blocks versus private blocks, the sharing-degree distribution, and the
//! read-only/read-write split.

use fxhash::FxHashMap;
use llc_sim::{BlockAddr, GenerationEnd, LlcObserver, MAX_CORES};

/// Per-class tallies (one for shared generations, one for private).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Generations in this class.
    pub generations: u64,
    /// Demand hits received by generations of this class.
    pub hits: u64,
    /// Sum of generation lifetimes (LLC accesses × lines): the
    /// time-integrated occupancy of the class.
    pub occupancy: u64,
    /// Stores observed by this class.
    pub writes: u64,
}

/// Aggregated sharing characterization of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingProfile {
    /// Tallies over shared generations (≥ 2 distinct cores).
    pub shared: ClassTally,
    /// Tallies over private generations.
    pub private: ClassTally,
    /// Hits to *read-only* shared generations.
    pub read_only_shared_hits: u64,
    /// Hits to *read-write* shared generations.
    pub read_write_shared_hits: u64,
    /// Read-only shared generation count.
    pub read_only_shared_gens: u64,
    /// Read-write shared generation count.
    pub read_write_shared_gens: u64,
    /// Histogram of generations by sharer count (index = sharers; 0
    /// unused).
    pub degree_histogram: [u64; MAX_CORES + 1],
    /// Hits received from a core other than the filler (cross-thread
    /// reuse volume).
    pub hits_by_non_filler: u64,
    /// Per distinct block: was any of its generations shared?
    footprint: FxHashMap<BlockAddr, bool>,
    /// `(blocks, shared blocks)` folded out of `footprint` by
    /// [`SharingProfile::compact`].
    compacted: (u64, u64),
}

impl Default for SharingProfile {
    fn default() -> Self {
        SharingProfile {
            shared: ClassTally::default(),
            private: ClassTally::default(),
            read_only_shared_hits: 0,
            read_write_shared_hits: 0,
            read_only_shared_gens: 0,
            read_write_shared_gens: 0,
            degree_histogram: [0; MAX_CORES + 1],
            hits_by_non_filler: 0,
            footprint: FxHashMap::default(),
            compacted: (0, 0),
        }
    }
}

impl SharingProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        SharingProfile::default()
    }

    /// Total generations observed.
    pub fn generations(&self) -> u64 {
        self.shared.generations + self.private.generations
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.shared.hits + self.private.hits
    }

    /// Fraction of LLC hits that went to shared generations — the paper's
    /// headline characterization number ("the shared blocks are more
    /// important than the private blocks").
    pub fn shared_hit_fraction(&self) -> f64 {
        fraction(self.shared.hits, self.hits())
    }

    /// Fraction of generations that were shared (population share; the
    /// contrast with [`SharingProfile::shared_hit_fraction`] is the
    /// paper's Fig. 1-vs-2 argument).
    pub fn shared_generation_fraction(&self) -> f64 {
        fraction(self.shared.generations, self.generations())
    }

    /// Fraction of time-integrated LLC occupancy held by shared
    /// generations.
    pub fn shared_occupancy_fraction(&self) -> f64 {
        fraction(
            self.shared.occupancy,
            self.shared.occupancy + self.private.occupancy,
        )
    }

    /// Fraction of shared-generation hits that went to read-only shared
    /// generations.
    pub fn read_only_hit_fraction(&self) -> f64 {
        fraction(self.read_only_shared_hits, self.shared.hits)
    }

    /// Average hits per generation, by class: `(shared, private)`.
    pub fn hits_per_generation(&self) -> (f64, f64) {
        (
            fraction(self.shared.hits, self.shared.generations),
            fraction(self.private.hits, self.private.generations),
        )
    }

    /// Number of distinct blocks that appeared in the LLC.
    pub fn footprint_blocks(&self) -> u64 {
        self.footprint.len() as u64 + self.compacted.0
    }

    /// Fraction of distinct blocks that were shared in at least one
    /// generation.
    pub fn shared_footprint_fraction(&self) -> f64 {
        let shared = self.footprint.values().filter(|&&s| s).count() as u64;
        fraction(shared + self.compacted.1, self.footprint_blocks())
    }

    /// Folds the per-block footprint map into its two counts and frees
    /// it, so a finished profile can be kept for a whole campaign at a
    /// fixed size. Every accessor answers as before; call it only once
    /// the run has ended (a block observed again afterwards would be
    /// counted twice).
    pub fn compact(&mut self) {
        let shared = self.footprint.values().filter(|&&s| s).count() as u64;
        self.compacted.0 += self.footprint.len() as u64;
        self.compacted.1 += shared;
        self.footprint = FxHashMap::default();
    }

    /// Sharing-degree distribution over shared generations: fractions of
    /// shared generations with exactly 2, 3–4, and ≥ 5 sharers.
    pub fn degree_buckets(&self) -> (f64, f64, f64) {
        let total: u64 = self.degree_histogram[2..].iter().sum();
        let two = self.degree_histogram[2];
        let three_four = self.degree_histogram[3] + self.degree_histogram[4];
        let five_plus: u64 = self.degree_histogram[5..].iter().sum();
        (
            fraction(two, total),
            fraction(three_four, total),
            fraction(five_plus, total),
        )
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl LlcObserver for SharingProfile {
    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        let tally = if gen.is_shared() {
            &mut self.shared
        } else {
            &mut self.private
        };
        tally.generations += 1;
        tally.hits += u64::from(gen.hits);
        tally.occupancy += gen.lifetime();
        tally.writes += u64::from(gen.writes);
        self.hits_by_non_filler += u64::from(gen.hits_by_non_filler);
        self.degree_histogram[gen.sharer_count() as usize] += 1;
        if gen.is_shared() {
            if gen.is_read_only_shared() {
                self.read_only_shared_hits += u64::from(gen.hits);
                self.read_only_shared_gens += 1;
            } else {
                self.read_write_shared_hits += u64::from(gen.hits);
                self.read_write_shared_gens += 1;
            }
        }
        let e = self.footprint.entry(gen.block).or_insert(false);
        *e |= gen.is_shared();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::{CoreId, EvictCause, Pc};

    fn gen(block: u64, sharers: u32, hits: u32, writes: u32) -> GenerationEnd {
        GenerationEnd {
            block: BlockAddr::new(block),
            set: 0,
            fill_pc: Pc::new(0x400),
            fill_core: CoreId::new(0),
            fill_time: 0,
            end_time: 100,
            sharer_mask: (1u32 << sharers) - 1,
            writer_mask: if writes > 0 { 1 } else { 0 },
            hits,
            hits_by_non_filler: if sharers > 1 { hits } else { 0 },
            writes,
            cause: EvictCause::Replacement,
        }
    }

    #[test]
    fn classifies_shared_and_private() {
        let mut p = SharingProfile::new();
        p.on_generation_end(&gen(1, 1, 3, 0)); // private
        p.on_generation_end(&gen(2, 4, 9, 0)); // shared RO
        p.on_generation_end(&gen(3, 2, 6, 2)); // shared RW
        assert_eq!(p.generations(), 3);
        assert_eq!(p.shared.generations, 2);
        assert_eq!(p.private.generations, 1);
        assert_eq!(p.hits(), 18);
        assert!((p.shared_hit_fraction() - 15.0 / 18.0).abs() < 1e-12);
        assert!((p.shared_generation_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.read_only_shared_hits, 9);
        assert_eq!(p.read_write_shared_hits, 6);
    }

    #[test]
    fn degree_buckets_partition_shared_gens() {
        let mut p = SharingProfile::new();
        p.on_generation_end(&gen(1, 2, 0, 0));
        p.on_generation_end(&gen(2, 3, 0, 0));
        p.on_generation_end(&gen(3, 4, 0, 0));
        p.on_generation_end(&gen(4, 8, 0, 0));
        let (two, mid, high) = p.degree_buckets();
        assert!((two - 0.25).abs() < 1e-12);
        assert!((mid - 0.5).abs() < 1e-12);
        assert!((high - 0.25).abs() < 1e-12);
        assert!((two + mid + high - 1.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_marks_blocks_ever_shared() {
        let mut p = SharingProfile::new();
        p.on_generation_end(&gen(7, 1, 0, 0)); // private generation of 7
        p.on_generation_end(&gen(7, 3, 0, 0)); // later shared generation of 7
        p.on_generation_end(&gen(8, 1, 0, 0));
        assert_eq!(p.footprint_blocks(), 2);
        assert!((p.shared_footprint_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compact_keeps_every_answer() {
        let mut p = SharingProfile::new();
        p.on_generation_end(&gen(7, 3, 2, 0));
        p.on_generation_end(&gen(8, 1, 1, 0));
        p.on_generation_end(&gen(9, 1, 0, 0));
        let before = p.clone();
        p.compact();
        assert!(p.footprint.is_empty());
        assert_eq!(p.footprint_blocks(), before.footprint_blocks());
        assert_eq!(
            p.shared_footprint_fraction(),
            before.shared_footprint_fraction()
        );
        assert_eq!(p.shared_hit_fraction(), before.shared_hit_fraction());
        assert_eq!(p.degree_buckets(), before.degree_buckets());
    }

    #[test]
    fn occupancy_accumulates_lifetimes() {
        let mut p = SharingProfile::new();
        p.on_generation_end(&gen(1, 1, 0, 0)); // lifetime 100
        p.on_generation_end(&gen(2, 2, 0, 0)); // lifetime 100
        assert!((p.shared_occupancy_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = SharingProfile::new();
        assert_eq!(p.generations(), 0);
        assert_eq!(p.shared_hit_fraction(), 0.0);
        assert_eq!(p.degree_buckets(), (0.0, 0.0, 0.0));
    }
}
