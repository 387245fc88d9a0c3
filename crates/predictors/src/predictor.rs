//! The fill-time sharing predictors the paper studies.
//!
//! At the moment a block is filled into the LLC, the controller must guess
//! whether the block will be shared during its residency. The paper
//! evaluates two history-based designs — indexed by the **block address**
//! and by the **fill PC** — trained at eviction time with the observed
//! generation outcome. Both are instances of
//! [`HistoryTable`] with different keys, plus a
//! tournament combiner and two trivial baselines used to calibrate the
//! metrics.

use llc_sim::{BlockAddr, Pc};

use crate::counters::SatCounter;
use crate::table::{HistoryTable, Lookup, TableConfig};

/// A fill-time sharing predictor.
pub trait SharingPredictor {
    /// Short display name, e.g. `"Addr"` or `"PC"`.
    fn name(&self) -> String;

    /// Predicts, at fill time, whether the generation starting now will be
    /// shared. Must not learn from the query (training happens at
    /// eviction).
    fn predict(&mut self, block: BlockAddr, pc: Pc) -> Lookup;

    /// Trains with the observed outcome of the generation that just ended
    /// (filled by `pc`, holding `block`).
    fn train(&mut self, block: BlockAddr, pc: Pc, shared: bool);
}

impl<P: SharingPredictor + ?Sized> SharingPredictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn predict(&mut self, block: BlockAddr, pc: Pc) -> Lookup {
        (**self).predict(block, pc)
    }
    fn train(&mut self, block: BlockAddr, pc: Pc, shared: bool) {
        (**self).train(block, pc, shared)
    }
}

/// Block-address-indexed history predictor: "the last generations of this
/// block were shared, so the next one will be too".
#[derive(Debug, Clone)]
pub struct AddressPredictor {
    table: HistoryTable,
}

impl AddressPredictor {
    /// Creates the predictor with an explicit table budget.
    pub fn new(config: TableConfig) -> Self {
        AddressPredictor {
            table: HistoryTable::new(config),
        }
    }

    /// The realistic default budget.
    pub fn realistic() -> Self {
        Self::new(TableConfig::realistic())
    }

    /// The underlying table (budget inspection).
    pub fn table(&self) -> &HistoryTable {
        &self.table
    }
}

impl SharingPredictor for AddressPredictor {
    fn name(&self) -> String {
        "Addr".into()
    }
    fn predict(&mut self, block: BlockAddr, _pc: Pc) -> Lookup {
        self.table.lookup(block.hash())
    }
    fn train(&mut self, block: BlockAddr, _pc: Pc, shared: bool) {
        self.table.train(block.hash(), shared);
    }
}

/// PC-indexed history predictor: "fills made by this instruction tend to
/// produce shared generations".
#[derive(Debug, Clone)]
pub struct PcPredictor {
    table: HistoryTable,
}

impl PcPredictor {
    /// Creates the predictor with an explicit table budget.
    pub fn new(config: TableConfig) -> Self {
        PcPredictor {
            table: HistoryTable::new(config),
        }
    }

    /// The realistic default budget.
    pub fn realistic() -> Self {
        Self::new(TableConfig::realistic())
    }

    /// The underlying table (budget inspection).
    pub fn table(&self) -> &HistoryTable {
        &self.table
    }
}

impl SharingPredictor for PcPredictor {
    fn name(&self) -> String {
        "PC".into()
    }
    fn predict(&mut self, _block: BlockAddr, pc: Pc) -> Lookup {
        self.table.lookup(pc.hash())
    }
    fn train(&mut self, _block: BlockAddr, pc: Pc, shared: bool) {
        self.table.train(pc.hash(), shared);
    }
}

/// Tournament combination of the address and PC predictors: a chooser
/// table of 2-bit counters, indexed by PC, learns per fill site which
/// component to trust.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    addr: AddressPredictor,
    pc: PcPredictor,
    chooser: Vec<SatCounter>,
}

impl TournamentPredictor {
    /// Creates a tournament over the two component budgets with a
    /// `chooser_entries`-entry chooser (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `chooser_entries` is not a power of two.
    pub fn new(addr: TableConfig, pc: TableConfig, chooser_entries: usize) -> Self {
        assert!(
            chooser_entries.is_power_of_two(),
            "chooser entries must be a power of two"
        );
        TournamentPredictor {
            addr: AddressPredictor::new(addr),
            pc: PcPredictor::new(pc),
            // Init weakly toward the address predictor (value 1 of 0..=3).
            chooser: vec![SatCounter::new(2, 1); chooser_entries],
        }
    }

    /// Realistic default: both components at their realistic budgets,
    /// 1024-entry chooser.
    pub fn realistic() -> Self {
        Self::new(TableConfig::realistic(), TableConfig::realistic(), 1024)
    }

    fn chooser_index(&self, pc: Pc) -> usize {
        (pc.hash() as usize) & (self.chooser.len() - 1)
    }
}

impl SharingPredictor for TournamentPredictor {
    fn name(&self) -> String {
        "Addr+PC".into()
    }

    fn predict(&mut self, block: BlockAddr, pc: Pc) -> Lookup {
        let a = self.addr.predict(block, pc);
        let p = self.pc.predict(block, pc);
        // High chooser = trust PC; low = trust address. Fall through to
        // whichever component is covered when the preferred one missed.
        let prefer_pc = self.chooser[self.chooser_index(pc)].is_high();
        let (first, second) = if prefer_pc { (p, a) } else { (a, p) };
        if first.covered {
            first
        } else if second.covered {
            second
        } else {
            Lookup {
                shared: false,
                covered: false,
            }
        }
    }

    fn train(&mut self, block: BlockAddr, pc: Pc, shared: bool) {
        let a = self.addr.predict(block, pc);
        let p = self.pc.predict(block, pc);
        let a_right = a.shared == shared;
        let p_right = p.shared == shared;
        if a_right != p_right {
            let idx = self.chooser_index(pc);
            if p_right {
                self.chooser[idx].inc();
            } else {
                self.chooser[idx].dec();
            }
        }
        self.addr.train(block, pc, shared);
        self.pc.train(block, pc, shared);
    }
}

/// Baseline that predicts every fill shared (perfect recall, terrible
/// precision on mostly-private workloads).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysShared;

impl SharingPredictor for AlwaysShared {
    fn name(&self) -> String {
        "AlwaysShared".into()
    }
    fn predict(&mut self, _: BlockAddr, _: Pc) -> Lookup {
        Lookup {
            shared: true,
            covered: true,
        }
    }
    fn train(&mut self, _: BlockAddr, _: Pc, _: bool) {}
}

/// Baseline that predicts every fill private (what an oblivious policy
/// effectively assumes).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverShared;

impl SharingPredictor for NeverShared {
    fn name(&self) -> String {
        "NeverShared".into()
    }
    fn predict(&mut self, _: BlockAddr, _: Pc) -> Lookup {
        Lookup {
            shared: false,
            covered: true,
        }
    }
    fn train(&mut self, _: BlockAddr, _: Pc, _: bool) {}
}

/// The predictor designs evaluated by the `fig9`/`fig10` experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictorKind {
    /// Block-address-indexed history table.
    Address,
    /// Fill-PC-indexed history table.
    Pc,
    /// Tournament of the two.
    Tournament,
    /// Region-indexed extension (the paper's "program semantics"
    /// conjecture).
    Region,
    /// Phase-augmented PC extension (the paper's "architectural feature"
    /// conjecture).
    PcPhase,
    /// Always-shared baseline.
    AlwaysShared,
    /// Never-shared baseline.
    NeverShared,
}

impl PredictorKind {
    /// The designs in report order.
    pub const ALL: [PredictorKind; 7] = [
        PredictorKind::Address,
        PredictorKind::Pc,
        PredictorKind::Tournament,
        PredictorKind::Region,
        PredictorKind::PcPhase,
        PredictorKind::AlwaysShared,
        PredictorKind::NeverShared,
    ];

    /// The two realistic history-based designs from the paper.
    pub const PAPER: [PredictorKind; 2] = [PredictorKind::Address, PredictorKind::Pc];

    /// The extension designs beyond the paper.
    pub const EXTENSIONS: [PredictorKind; 2] = [PredictorKind::Region, PredictorKind::PcPhase];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PredictorKind::Address => "Addr",
            PredictorKind::Pc => "PC",
            PredictorKind::Tournament => "Addr+PC",
            PredictorKind::Region => "Region",
            PredictorKind::PcPhase => "PC+Phase",
            PredictorKind::AlwaysShared => "AlwaysShared",
            PredictorKind::NeverShared => "NeverShared",
        }
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Instantiates a predictor at the realistic budget.
pub fn build_predictor(kind: PredictorKind) -> Box<dyn SharingPredictor> {
    build_predictor_with(kind, TableConfig::realistic())
}

/// Instantiates a predictor with an explicit table budget (the budget
/// applies to each component table).
pub fn build_predictor_with(kind: PredictorKind, config: TableConfig) -> Box<dyn SharingPredictor> {
    match kind {
        PredictorKind::Address => Box::new(AddressPredictor::new(config)),
        PredictorKind::Pc => Box::new(PcPredictor::new(config)),
        PredictorKind::Tournament => Box::new(TournamentPredictor::new(config, config, 1024)),
        PredictorKind::Region => {
            Box::new(crate::extensions::RegionPredictor::new(config, 256 << 10))
        }
        PredictorKind::PcPhase => Box::new(crate::extensions::PhasePredictor::new(config)),
        PredictorKind::AlwaysShared => Box::new(AlwaysShared),
        PredictorKind::NeverShared => Box::new(NeverShared),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: u64) -> BlockAddr {
        BlockAddr::new(x)
    }
    fn pc(x: u64) -> Pc {
        Pc::new(x)
    }

    #[test]
    fn address_predictor_learns_per_block() {
        let mut p = AddressPredictor::new(TableConfig::tiny());
        p.train(b(1), pc(0x400), true);
        p.train(b(2), pc(0x400), false);
        assert!(p.predict(b(1), pc(0x999)).shared); // PC irrelevant
        assert!(!p.predict(b(2), pc(0x999)).shared);
    }

    #[test]
    fn pc_predictor_learns_per_site() {
        let mut p = PcPredictor::new(TableConfig::tiny());
        p.train(b(1), pc(0x400), true);
        p.train(b(2), pc(0x500), false);
        assert!(p.predict(b(77), pc(0x400)).shared); // block irrelevant
        assert!(!p.predict(b(77), pc(0x500)).shared);
    }

    #[test]
    fn tournament_prefers_correct_component() {
        let mut t = TournamentPredictor::new(TableConfig::tiny(), TableConfig::tiny(), 16);
        // PC 0x400 produces shared generations regardless of block; the
        // address predictor is confused because each block appears once.
        for i in 0..50 {
            t.train(b(1000 + i), pc(0x400), true);
        }
        let l = t.predict(b(5000), pc(0x400));
        assert!(l.shared, "tournament should trust the PC component here");
    }

    #[test]
    fn baselines_are_constant() {
        let mut a = AlwaysShared;
        let mut n = NeverShared;
        assert!(a.predict(b(1), pc(1)).shared);
        assert!(!n.predict(b(1), pc(1)).shared);
        a.train(b(1), pc(1), false);
        n.train(b(1), pc(1), true);
        assert!(a.predict(b(2), pc(2)).shared);
        assert!(!n.predict(b(2), pc(2)).shared);
    }

    #[test]
    fn build_all_kinds() {
        for k in PredictorKind::ALL {
            let p = build_predictor(k);
            assert_eq!(p.name(), k.label());
        }
    }
}
