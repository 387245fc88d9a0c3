//! The block-keyed observers as they stood with SipHash
//! `std::collections::HashMap` state, ported line for line.
//!
//! They are the baseline in two places: `benches/observers.rs` times the
//! in-tree [`VictimizationStats`], [`SharingProfile`] and
//! [`PredictorStudy`] against them, and `tests/observer_equivalence.rs`
//! checks, for every policy, that the in-tree observers count exactly
//! what these counted. [`assert_victimization_matches`] and
//! [`assert_profile_matches`] are the one definition of "counts the
//! same" both use.
//!
//! [`PredictorStudy`]: llc_predictors::PredictorStudy

use std::collections::HashMap;

use llc_predictors::{ConfusionMatrix, Lookup, SharingPredictor};
use llc_sharing::{ClassTally, SharingProfile, VictimizationStats};
use llc_sim::{AccessCtx, BlockAddr, EvictCause, GenerationEnd, LlcObserver, MAX_CORES};

/// Premature victimization with two maps: three accesses per fill, two
/// per generation end.
#[derive(Debug)]
pub struct Victimization {
    window: u64,
    evictions: u64,
    premature: u64,
    premature_shared: u64,
    last_evicted: HashMap<BlockAddr, u64>,
    premature_refill: HashMap<BlockAddr, ()>,
}

impl Victimization {
    /// Creates the observer with a refill window of `window` LLC accesses.
    pub fn new(window: u64) -> Self {
        Victimization {
            window,
            evictions: 0,
            premature: 0,
            premature_shared: 0,
            last_evicted: HashMap::new(),
            premature_refill: HashMap::new(),
        }
    }

    /// The refill window, in LLC accesses.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Total replacement evictions observed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl LlcObserver for Victimization {
    fn on_fill(&mut self, ctx: &AccessCtx) {
        if let Some(&t_evict) = self.last_evicted.get(&ctx.block) {
            if ctx.time.saturating_sub(t_evict) <= self.window {
                self.premature += 1;
                self.premature_refill.insert(ctx.block, ());
            }
            self.last_evicted.remove(&ctx.block);
        }
    }

    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        if self.premature_refill.remove(&gen.block).is_some() && gen.is_shared() {
            self.premature_shared += 1;
        }
        if gen.cause == EvictCause::Replacement {
            self.evictions += 1;
            self.last_evicted.insert(gen.block, gen.end_time);
        }
    }
}

/// Panics, naming `what`, unless `new` counted the evictions, premature
/// evictions and premature shared victimizations `old` counted.
pub fn assert_victimization_matches(new: &VictimizationStats, old: &Victimization, what: &str) {
    assert_eq!(
        [new.evictions(), new.premature(), new.premature_shared()],
        [old.evictions, old.premature, old.premature_shared],
        "{what}: victimization counts differ"
    );
}

/// The sharing profile's per-generation tallies with a SipHash
/// footprint.
#[derive(Debug)]
pub struct Profile {
    shared: ClassTally,
    private: ClassTally,
    read_only_shared_hits: u64,
    read_write_shared_hits: u64,
    read_only_shared_gens: u64,
    read_write_shared_gens: u64,
    degree_histogram: [u64; MAX_CORES + 1],
    hits_by_non_filler: u64,
    footprint: HashMap<BlockAddr, bool>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Profile {
            shared: ClassTally::default(),
            private: ClassTally::default(),
            read_only_shared_hits: 0,
            read_write_shared_hits: 0,
            read_only_shared_gens: 0,
            read_write_shared_gens: 0,
            degree_histogram: [0; MAX_CORES + 1],
            hits_by_non_filler: 0,
            footprint: HashMap::new(),
        }
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile::new()
    }
}

impl LlcObserver for Profile {
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

/// Panics, naming `what`, unless `new` holds every tally, the degree
/// histogram and the footprint (blocks and shared fraction, to the bit)
/// that `old` holds.
pub fn assert_profile_matches(new: &SharingProfile, old: &Profile, what: &str) {
    assert_eq!(
        (new.shared, new.private),
        (old.shared, old.private),
        "{what}: class tallies differ"
    );
    assert_eq!(
        [
            new.read_only_shared_hits,
            new.read_write_shared_hits,
            new.read_only_shared_gens,
            new.read_write_shared_gens,
            new.hits_by_non_filler,
        ],
        [
            old.read_only_shared_hits,
            old.read_write_shared_hits,
            old.read_only_shared_gens,
            old.read_write_shared_gens,
            old.hits_by_non_filler,
        ],
        "{what}: read-only/read-write split differs"
    );
    assert_eq!(
        new.degree_histogram, old.degree_histogram,
        "{what}: degree histograms differ"
    );
    assert_eq!(
        new.footprint_blocks(),
        old.footprint.len() as u64,
        "{what}: footprints differ"
    );
    let shared_blocks = old.footprint.values().filter(|&&s| s).count();
    let fraction = if old.footprint.is_empty() {
        0.0
    } else {
        shared_blocks as f64 / old.footprint.len() as f64
    };
    assert_eq!(
        new.shared_footprint_fraction().to_bits(),
        fraction.to_bits(),
        "{what}: shared footprints differ"
    );
}

/// A predictor study with SipHash pending predictions.
pub struct Study {
    predictor: Box<dyn SharingPredictor>,
    pending: HashMap<BlockAddr, Lookup>,
    matrix: ConfusionMatrix,
}

impl Study {
    /// Creates a study around `predictor`.
    pub fn new(predictor: Box<dyn SharingPredictor>) -> Self {
        Study {
            predictor,
            pending: HashMap::new(),
            matrix: ConfusionMatrix::default(),
        }
    }

    /// The scores accumulated so far.
    pub fn matrix(&self) -> ConfusionMatrix {
        self.matrix
    }
}

impl LlcObserver for Study {
    fn on_fill(&mut self, ctx: &AccessCtx) {
        let lookup = self.predictor.predict(ctx.block, ctx.pc);
        self.pending.insert(ctx.block, lookup);
    }

    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        if let Some(lookup) = self.pending.remove(&gen.block) {
            self.matrix
                .record(lookup.shared, gen.is_shared(), lookup.covered);
        }
        self.predictor
            .train(gen.block, gen.fill_pc, gen.is_shared());
    }
}
