//! The offline predictability study (experiment `fig9`).
//!
//! `PredictorStudy` is an [`LlcObserver`] that rides along any simulation:
//! at each fill it queries a predictor *with the table state of that
//! moment*, remembers the prediction, and when the generation ends it
//! scores the prediction against the observed outcome and trains the
//! predictor. This reproduces the paper's methodology: the predictor never
//! influences replacement; only its achievable accuracy is measured.

use fxhash::FxHashMap;
use llc_sim::{AccessCtx, BlockAddr, GenerationEnd, LlcObserver};

use crate::metrics::ConfusionMatrix;
use crate::predictor::SharingPredictor;
use crate::table::Lookup;

/// Observer that measures a fill-time predictor's achievable accuracy.
pub struct PredictorStudy {
    predictor: Box<dyn SharingPredictor>,
    pending: FxHashMap<BlockAddr, Lookup>,
    matrix: ConfusionMatrix,
}

impl PredictorStudy {
    /// Creates a study around `predictor`.
    pub fn new(predictor: Box<dyn SharingPredictor>) -> Self {
        PredictorStudy {
            predictor,
            pending: FxHashMap::default(),
            matrix: ConfusionMatrix::default(),
        }
    }

    /// The scores accumulated so far.
    pub fn matrix(&self) -> ConfusionMatrix {
        self.matrix
    }

    /// The predictor's display name.
    pub fn predictor_name(&self) -> String {
        self.predictor.name()
    }
}

impl LlcObserver for PredictorStudy {
    fn on_fill(&mut self, ctx: &AccessCtx) {
        let lookup = self.predictor.predict(ctx.block, ctx.pc);
        self.pending.insert(ctx.block, lookup);
    }

    fn on_generation_end(&mut self, gen: &GenerationEnd) {
        // A block can only be resident once, so the pending entry is the
        // prediction made at this generation's fill.
        if let Some(lookup) = self.pending.remove(&gen.block) {
            self.matrix
                .record(lookup.shared, gen.is_shared(), lookup.covered);
        }
        self.predictor
            .train(gen.block, gen.fill_pc, gen.is_shared());
    }
}

impl std::fmt::Debug for PredictorStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorStudy")
            .field("predictor", &self.predictor.name())
            .field("matrix", &self.matrix)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{AddressPredictor, AlwaysShared};
    use crate::table::TableConfig;
    use llc_sim::{AccessKind, Aux, CoreId, EvictCause, Pc};

    fn fill_ctx(block: u64, pc: u64) -> AccessCtx {
        AccessCtx {
            block: BlockAddr::new(block),
            pc: Pc::new(pc),
            core: CoreId::new(0),
            kind: AccessKind::Read,
            time: 0,
            aux: Aux::default(),
        }
    }

    fn gen(block: u64, pc: u64, shared: bool) -> GenerationEnd {
        GenerationEnd {
            block: BlockAddr::new(block),
            set: 0,
            fill_pc: Pc::new(pc),
            fill_core: CoreId::new(0),
            fill_time: 0,
            end_time: 1,
            sharer_mask: if shared { 0b11 } else { 0b1 },
            writer_mask: 0,
            hits: 0,
            hits_by_non_filler: 0,
            writes: 0,
            cause: EvictCause::Replacement,
        }
    }

    #[test]
    fn scores_against_generation_outcomes() {
        let mut s = PredictorStudy::new(Box::new(AlwaysShared));
        s.on_fill(&fill_ctx(1, 0x400));
        s.on_generation_end(&gen(1, 0x400, true)); // TP
        s.on_fill(&fill_ctx(2, 0x400));
        s.on_generation_end(&gen(2, 0x400, false)); // FP
        let m = s.matrix();
        assert_eq!(m.tp, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn prediction_uses_fill_time_state() {
        // The address predictor starts cold: the first generation of a
        // block must be scored as an uncovered not-shared prediction even
        // though training happens right after.
        let mut s = PredictorStudy::new(Box::new(AddressPredictor::new(TableConfig::tiny())));
        s.on_fill(&fill_ctx(9, 0x400));
        s.on_generation_end(&gen(9, 0x400, true)); // FN, uncovered
        let m = s.matrix();
        assert_eq!(m.fn_, 1);
        assert_eq!(m.covered, 0);
        // Second generation of the same block: now predicted shared.
        s.on_fill(&fill_ctx(9, 0x400));
        s.on_generation_end(&gen(9, 0x400, true)); // TP, covered
        let m = s.matrix();
        assert_eq!(m.tp, 1);
        assert_eq!(m.covered, 1);
    }

    #[test]
    fn flush_generations_without_fill_records_are_ignored() {
        let mut s = PredictorStudy::new(Box::new(AlwaysShared));
        // A generation end with no matching fill (e.g. observer attached
        // mid-run) must not crash or score.
        s.on_generation_end(&gen(5, 0x400, true));
        assert_eq!(s.matrix().total(), 0);
    }
}
