//! The full-hierarchy driver: wires a trace source into the CMP and runs
//! the policy a [`ReplayDesc`] names — realistic, OPT, oracle-wrapped,
//! reactive or predictor-wrapped — over it, feeding annotated descriptors
//! the offline pre-pass results (Belady next-use chains, oracle sharing
//! outcomes) of [`compute_annotations`].
//!
//! # Why pre-passes are exact
//!
//! In the default non-inclusive hierarchy the sequence of LLC references
//! is a pure function of the workload and the private caches — it does not
//! depend on the LLC replacement policy. Two runs of the same workload
//! therefore produce *identical* LLC access streams, and an annotation
//! computed at stream index `i` in a pre-pass describes exactly the access
//! the second run performs at index `i`. This is what makes Belady's OPT
//! exact and the oracle bits perfectly aligned.
//!
//! Annotated runs through [`simulate`] exploit this property twice over:
//! on a non-inclusive hierarchy they record the stream **once**
//! ([`record_stream`]), derive all annotations from the recording in a
//! single fused backward scan, and replay only the LLC. Inclusive
//! hierarchies run the full hierarchy (see the [`mod@crate::replay`]
//! module docs for why). A full-hierarchy run builds its policy and
//! annotation feed through the same descriptor dispatch as
//! [`replay`](fn@replay), boxed for [`simulate_on`].

use llc_dag::ReplayDesc;
use llc_sim::{
    AccessCtx, AccessKind, AuxProvider, BlockAddr, Cmp, CoreId, HierarchyConfig, Inclusion,
    LiveGeneration, LlcObserver, MultiObserver, Pc, ReplacementPolicy,
};
use llc_trace::{TraceSource, UpgradeEvent};

use crate::error::RunError;
use crate::replay::{compute_annotations, dispatch, record_stream, replay, PolicyTask};

pub use llc_dag::RunResult;

/// Runs `policy` over `trace` through the full hierarchy with optional
/// aux annotations and observers — the boxed reference driver, mirror of
/// [`replay_on`](crate::replay_on), that the equivalence tests compare
/// the replay fast path against. The hierarchy is flushed at the end so
/// every generation is reported.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the hierarchy configuration is invalid or
/// a record names a core the hierarchy does not have (a trace recorded on
/// a wider machine, or a corrupted core byte that slipped past the
/// decoder), and [`RunError::Trace`] if the trace source ended on a
/// decode error (file replay of a corrupt trace) rather than clean
/// exhaustion.
pub fn simulate_on<W: TraceSource>(
    config: &HierarchyConfig,
    policy: Box<dyn ReplacementPolicy>,
    aux: Option<Box<dyn AuxProvider>>,
    mut trace: W,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    let mut cmp = Cmp::new(*config, policy).map_err(llc_sim::SimError::from)?;
    if let Some(aux) = aux {
        cmp.set_aux_provider(aux);
    }
    let mut obs = MultiObserver::new(observers);
    while let Some(a) = trace.next_access() {
        cmp.check_access(&a)?;
        cmp.access(a, &mut obs);
    }
    if let Some(e) = trace.take_error() {
        return Err(RunError::Trace(e));
    }
    cmp.finish(&mut obs);
    Ok(RunResult {
        policy: cmp.llc().policy().name(),
        llc: cmp.llc_stats(),
        l1: cmp.l1_stats(),
        l2: cmp.l2_stats(),
        instructions: cmp.instructions(),
        trace_accesses: cmp.trace_accesses(),
    })
}

/// Runs the policy `desc` names over the workload `make_trace` builds:
///
/// * a descriptor that needs no annotations runs one full simulation;
/// * an annotated descriptor ([`ReplayDesc::annotation_window`]: OPT and
///   the oracle wraps) records the LLC reference stream once and derives
///   its annotations from the recording. On a non-inclusive hierarchy it
///   then replays only the LLC ([`replay`](fn@crate::replay)); on an
///   inclusive one, where the stream depends on the policy, the measured
///   run is a second, full simulation fed the recording's annotations
///   (the approximation experiment `abl2` quantifies).
///
/// `make_trace` is called once per pass over the workload.
///
/// # Errors
///
/// Same conditions as [`simulate_on`].
pub fn simulate<W, F>(
    config: &HierarchyConfig,
    desc: &ReplayDesc,
    make_trace: &mut F,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    W: TraceSource,
    F: FnMut() -> W,
{
    let ann = match desc.annotation_window() {
        None => None,
        Some(window) => {
            let stream = record_stream(config, make_trace())?;
            if config.inclusion != Inclusion::Inclusive {
                return replay(config, desc, &stream, None, observers);
            }
            Some(compute_annotations(&stream, window))
        }
    };
    let task = FullHierarchy {
        config,
        trace: make_trace(),
        observers,
    };
    dispatch(
        desc,
        config.llc.sets() as usize,
        config.llc.ways,
        ann.as_ref(),
        task,
    )
}

/// One [`simulate_on`] run of the descriptor's policy, boxed, so every
/// descriptor shares the one full-hierarchy driver.
struct FullHierarchy<'a, 'o, W> {
    config: &'a HierarchyConfig,
    trace: W,
    observers: Vec<&'o mut dyn LlcObserver>,
}

impl<W: TraceSource> PolicyTask for FullHierarchy<'_, '_, W> {
    type Output = Result<RunResult, RunError>;

    fn run<P: ReplacementPolicy + 'static>(
        self,
        policy: P,
        aux: Option<Box<dyn AuxProvider>>,
    ) -> Self::Output {
        simulate_on(
            self.config,
            Box::new(policy),
            aux,
            self.trace,
            self.observers,
        )
    }
}

/// The default oracle retention horizon for a hierarchy: four times the
/// number of LLC lines, the bound on "residency" in the oracle question
/// [`compute_annotations`] answers. A block re-referenced within this
/// many LLC accesses is plausibly retainable; the factor is swept in the
/// `abl1` ablation. Because the horizon grows with the cache, a larger
/// LLC lets the oracle protect shared blocks with longer re-reference
/// distances, which is exactly why the paper's oracle gains are larger at
/// 8 MB than at 4 MB.
pub fn oracle_window(config: &HierarchyConfig) -> u64 {
    4 * config.llc.lines()
}

/// Observer recording every LLC access (block, core, PC, kind) plus the
/// interleaved coherence upgrades, in stream order — everything a
/// [`replay`](fn@crate::replay) run needs to reproduce the LLC
/// bit-identically.
#[derive(Debug, Default)]
pub struct StreamRecorder {
    /// One entry per LLC access.
    pub blocks: Vec<BlockAddr>,
    /// The issuing core of each access.
    pub cores: Vec<CoreId>,
    /// The program counter of each access.
    pub pcs: Vec<Pc>,
    /// Read or write.
    pub kinds: Vec<AccessKind>,
    /// Coherence upgrades, positioned by the number of LLC accesses that
    /// preceded them.
    pub upgrades: Vec<UpgradeEvent>,
}

impl StreamRecorder {
    /// Creates a recorder pre-sized from a trace length hint
    /// ([`TraceSource::len_hint`]). LLC accesses are the private caches'
    /// misses — typically a small fraction of the trace — so the capacity
    /// is a quarter of the hint, bounded to keep a corrupt hint from
    /// reserving gigabytes.
    pub fn with_capacity(len_hint: Option<u64>) -> Self {
        let cap = len_hint.map_or(0, |h| (h / 4).min(1 << 22) as usize);
        StreamRecorder {
            blocks: Vec::with_capacity(cap),
            cores: Vec::with_capacity(cap),
            pcs: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            upgrades: Vec::new(),
        }
    }

    fn push(&mut self, ctx: &AccessCtx) {
        self.blocks.push(ctx.block);
        self.cores.push(ctx.core);
        self.pcs.push(ctx.pc);
        self.kinds.push(ctx.kind);
    }
}

impl LlcObserver for StreamRecorder {
    fn on_hit(&mut self, ctx: &AccessCtx, _: &LiveGeneration, _: bool) {
        self.push(ctx);
    }
    fn on_fill(&mut self, ctx: &AccessCtx) {
        self.push(ctx);
    }
    fn on_upgrade(&mut self, block: BlockAddr, core: CoreId) {
        // `on_hit`/`on_fill` fire exactly once per LLC access, in order,
        // so `blocks.len()` is the LLC time this upgrade lands at.
        self.upgrades.push(UpgradeEvent {
            at: self.blocks.len() as u64,
            block,
            core,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_policies::{build_policy, PolicyKind, ProtectMode};
    use llc_trace::{App, Scale};

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::tiny()
    }

    fn make(app: App) -> impl FnMut() -> llc_trace::Workload {
        move || app.workload(4, Scale::Tiny)
    }

    #[test]
    fn llc_stream_is_policy_independent() {
        let mut rec_lru = StreamRecorder::default();
        let mut rec_rand = StreamRecorder::default();
        let c = cfg();
        simulate_on(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Bodytrack)(),
            vec![&mut rec_lru],
        )
        .expect("run");
        simulate_on(
            &c,
            build_policy(PolicyKind::Random, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Bodytrack)(),
            vec![&mut rec_rand],
        )
        .expect("run");
        assert_eq!(rec_lru.blocks, rec_rand.blocks);
        assert!(!rec_lru.blocks.is_empty());
    }

    #[test]
    fn next_use_chains_are_consistent() {
        let c = cfg();
        let mut rec = StreamRecorder::default();
        simulate_on(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Water)(),
            vec![&mut rec],
        )
        .expect("run");
        let stream = record_stream(&c, make(App::Water)()).expect("record");
        let next = compute_annotations(&stream, 0).next_use;
        assert_eq!(next.len(), rec.blocks.len());
        for (i, &n) in next.iter().enumerate() {
            if n != u64::MAX {
                let n = n as usize;
                assert!(n > i);
                assert_eq!(rec.blocks[n], rec.blocks[i], "chain broken at {i}");
                // No intervening access to the same block.
                for j in i + 1..n {
                    assert_ne!(rec.blocks[j], rec.blocks[i]);
                }
            }
        }
    }

    #[test]
    fn opt_beats_every_realistic_policy() {
        let c = cfg();
        for app in [App::Bodytrack, App::Fft, App::Canneal] {
            let opt = simulate(
                &c,
                &ReplayDesc::plain(PolicyKind::Opt),
                &mut make(app),
                vec![],
            )
            .expect("run");
            for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Random] {
                let r =
                    simulate(&c, &ReplayDesc::plain(kind), &mut make(app), vec![]).expect("run");
                assert!(
                    opt.llc.misses() <= r.llc.misses(),
                    "{app}: OPT {} > {} {}",
                    opt.llc.misses(),
                    kind,
                    r.llc.misses()
                );
                // Identical streams: same access counts.
                assert_eq!(opt.llc.accesses, r.llc.accesses);
            }
        }
    }

    #[test]
    fn oracle_never_hurts_much_and_usually_helps() {
        let c = cfg();
        for app in [App::Bodytrack, App::Streamcluster] {
            let lru = simulate(
                &c,
                &ReplayDesc::plain(PolicyKind::Lru),
                &mut make(app),
                vec![],
            )
            .expect("run");
            let oracle = simulate(
                &c,
                &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&c)),
                &mut make(app),
                vec![],
            )
            .expect("run");
            assert_eq!(lru.llc.accesses, oracle.llc.accesses);
            // The oracle is an approximation (outcomes from the base run),
            // so allow a small regression margin but catch blow-ups.
            let limit = lru.llc.misses() + lru.llc.misses() / 20 + 10;
            assert!(
                oracle.llc.misses() <= limit,
                "{app}: oracle {} vs LRU {}",
                oracle.llc.misses(),
                lru.llc.misses()
            );
        }
    }

    #[test]
    fn shared_soon_matches_brute_force() {
        let c = cfg();
        let mut rec = StreamRecorder::default();
        simulate_on(
            &c,
            build_policy(PolicyKind::Lru, c.llc.sets() as usize, c.llc.ways),
            None,
            make(App::Dedup)(),
            vec![&mut rec],
        )
        .expect("run");
        let stream = record_stream(&c, make(App::Dedup)()).expect("record");
        // Brute force on a prefix (quadratic): the distance from each
        // access to the next access to its block by another core.
        let n = rec.blocks.len().min(3000);
        let brute: Vec<Option<usize>> = (0..n)
            .map(|i| {
                (i + 1..rec.blocks.len())
                    .find(|&j| rec.blocks[j] == rec.blocks[i] && rec.cores[j] != rec.cores[i])
                    .map(|j| j - i)
            })
            .collect();
        let lines = c.llc.lines();
        // Windows the scan derives, and `u32::MAX`, which is answered by
        // the direct recurrence.
        for window in [0, 1, 64, lines, 4 * lines, 16 * lines, u64::from(u32::MAX)] {
            let fast = compute_annotations(&stream, window).shared_soon;
            assert_eq!(fast.len(), rec.blocks.len());
            for (i, (&got, dist)) in fast.iter().zip(&brute).enumerate() {
                let expected = dist.is_some_and(|d| d as u64 <= window);
                assert_eq!(got, expected, "window {window}: mismatch at position {i}");
            }
            // Nothing is shared within 0 accesses; the workload has
            // sharing, so a window of 64 or more finds some.
            if window == 0 || window >= 64 {
                assert_eq!(fast.iter().any(|&b| b), window > 0, "window {window}");
            }
            assert!(fast.iter().any(|&b| !b), "window {window}");
        }
    }

    #[test]
    fn oracle_run_is_deterministic() {
        let c = cfg();
        let a = simulate(
            &c,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&c)),
            &mut make(App::Water),
            vec![],
        )
        .expect("run");
        let b = simulate(
            &c,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&c)),
            &mut make(App::Water),
            vec![],
        )
        .expect("run");
        assert_eq!(a.llc, b.llc);
    }

    #[test]
    fn run_result_mpki_uses_instructions() {
        let c = cfg();
        let r = simulate(
            &c,
            &ReplayDesc::plain(PolicyKind::Lru),
            &mut make(App::Swaptions),
            vec![],
        )
        .expect("run");
        assert!(r.instructions > r.trace_accesses);
        assert!(r.llc_mpki() > 0.0);
        assert!(r.l1_mpki() >= r.llc_mpki());
    }
}
