//! The simulation driver: wires a trace source into the CMP, performs the
//! offline pre-passes (Belady next-use chains, oracle sharing outcomes)
//! and runs policies — realistic, OPT, oracle-wrapped or
//! predictor-wrapped — over identical LLC reference streams.
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
//! Since the stream-replay fast path landed, annotated runs through
//! [`simulate`] exploit this property twice over: on a non-inclusive
//! hierarchy they record the stream **once**
//! ([`crate::replay::record_stream`]), derive all annotations from the
//! recording in a single fused backward scan, and replay only the LLC —
//! instead of running up to three full hierarchy simulations. Inclusive
//! hierarchies keep the historical full-simulation path (see the
//! [`mod@crate::replay`] module docs for why).

use std::sync::Arc;

use llc_dag::{ReplayDesc, ReplayWrap};
use llc_policies::{build_oracle_policy_with_mode, build_policy, build_reactive_policy};
use llc_predictors::{build_predictor, PredictorWrap};
use llc_sim::{
    AccessCtx, AccessKind, Aux, AuxProvider, BlockAddr, Cmp, CoreId, HierarchyConfig, Inclusion,
    LiveGeneration, LlcObserver, MultiObserver, Pc, ReplacementPolicy,
};
use llc_trace::{TraceSource, UpgradeEvent};

use crate::error::RunError;
use crate::replay::{aux_provider, compute_annotations, record_stream, replay, Exec};

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
    let sets = config.llc.sets() as usize;
    let ways = config.llc.ways;
    let Some(window) = desc.annotation_window() else {
        let policy = boxed_policy(desc, sets, ways);
        return simulate_on(config, policy, None, make_trace(), observers);
    };
    let stream = record_stream(config, make_trace())?;
    if config.inclusion != Inclusion::Inclusive {
        return replay(config, desc, &stream, None, Exec::Auto, observers);
    }
    let ann = compute_annotations(&stream, window);
    simulate_on(
        config,
        boxed_policy(desc, sets, ways),
        Some(aux_provider(desc, &ann)),
        make_trace(),
        observers,
    )
}

/// The boxed policy `desc` names, for the full-hierarchy driver.
fn boxed_policy(desc: &ReplayDesc, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    match desc.wrap {
        ReplayWrap::Plain => build_policy(desc.kind, sets, ways),
        ReplayWrap::Oracle { mode, .. } => {
            build_oracle_policy_with_mode(desc.kind, sets, ways, mode)
        }
        ReplayWrap::Reactive => build_reactive_policy(desc.kind, sets, ways),
        ReplayWrap::Predictor(predictor) => Box::new(PredictorWrap::new(
            build_policy(desc.kind, sets, ways),
            build_predictor(predictor),
            sets,
            ways,
        )),
    }
}

/// Records the LLC reference stream and computes, for each access, the
/// stream index of the next access to the same block.
pub fn compute_next_use<W: TraceSource>(
    config: &HierarchyConfig,
    trace: W,
) -> Result<Vec<u64>, RunError> {
    let stream = record_stream(config, trace)?;
    Ok(Arc::unwrap_or_clone(
        compute_annotations(&stream, 0).next_use,
    ))
}

/// Computes the oracle's answer vector from the (policy-independent) LLC
/// reference stream: `outcome[t]` is `true` iff the block accessed at
/// stream position `t` is touched by a *different core* within the next
/// `window` LLC accesses.
///
/// This is the precise form of the paper's fill-time oracle question —
/// "will this block be shared during its residency?" — made
/// policy-independent by bounding "residency" with a retention horizon
/// proportional to the LLC capacity (see [`oracle_window`]). Because the
/// horizon grows with the cache, a larger LLC lets the oracle protect
/// shared blocks with longer re-reference distances, which is exactly why
/// the paper's oracle gains are larger at 8 MB than at 4 MB.
///
/// With an [`Inclusion::Inclusive`](llc_sim::Inclusion) hierarchy the LLC
/// reference stream is *not* policy-independent (back-invalidations feed
/// back into the private caches), so the annotations are an approximation
/// there — the `abl2` ablation quantifies the effect.
pub fn compute_shared_soon<W: TraceSource>(
    config: &HierarchyConfig,
    trace: W,
    window: u64,
) -> Result<Vec<bool>, RunError> {
    let stream = record_stream(config, trace)?;
    Ok(Arc::unwrap_or_clone(
        compute_annotations(&stream, window).shared_soon,
    ))
}

/// The default oracle retention horizon for a hierarchy: four times the
/// number of LLC lines. A block re-referenced within this many LLC
/// accesses is plausibly retainable; the factor is swept in the `abl1`
/// ablation.
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

/// Aux provider feeding next-use chains to OPT.
///
/// Annotation vectors are held behind [`Arc`] so set-sharded replays can
/// hand every shard its own provider without cloning megabytes of
/// annotations.
#[derive(Debug, Clone)]
pub struct NextUseProvider {
    next_use: Arc<Vec<u64>>,
}

impl NextUseProvider {
    /// Wraps a next-use vector (`u64::MAX` = never used again).
    pub fn new(next_use: Vec<u64>) -> Self {
        NextUseProvider::shared(Arc::new(next_use))
    }

    /// Wraps an already-shared next-use vector.
    pub fn shared(next_use: Arc<Vec<u64>>) -> Self {
        NextUseProvider { next_use }
    }
}

impl AuxProvider for NextUseProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let n = self
            .next_use
            .get(time as usize)
            .copied()
            .unwrap_or(u64::MAX);
        Aux {
            next_use: (n != u64::MAX).then_some(n),
            oracle_shared: None,
        }
    }
}

/// Aux provider feeding oracle sharing outcomes to
/// [`OracleWrap`](llc_policies::OracleWrap).
#[derive(Debug, Clone)]
pub struct OracleProvider {
    outcome: Arc<Vec<bool>>,
}

impl OracleProvider {
    /// Wraps an outcome vector indexed by LLC access stream position.
    pub fn new(outcome: Vec<bool>) -> Self {
        OracleProvider::shared(Arc::new(outcome))
    }

    /// Wraps an already-shared outcome vector.
    pub fn shared(outcome: Arc<Vec<bool>>) -> Self {
        OracleProvider { outcome }
    }
}

impl AuxProvider for OracleProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let s = self.outcome.get(time as usize).copied().unwrap_or(false);
        Aux {
            next_use: None,
            oracle_shared: Some(s),
        }
    }
}

/// Aux provider feeding both annotation kinds (for `OracleWrap<Opt>`).
#[derive(Debug, Clone)]
pub struct CombinedProvider {
    next_use: Arc<Vec<u64>>,
    outcome: Arc<Vec<bool>>,
}

impl CombinedProvider {
    /// Combines already-shared annotation vectors.
    pub fn shared(next_use: Arc<Vec<u64>>, outcome: Arc<Vec<bool>>) -> Self {
        CombinedProvider { next_use, outcome }
    }
}

impl AuxProvider for CombinedProvider {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let n = self
            .next_use
            .get(time as usize)
            .copied()
            .unwrap_or(u64::MAX);
        let s = self.outcome.get(time as usize).copied().unwrap_or(false);
        Aux {
            next_use: (n != u64::MAX).then_some(n),
            oracle_shared: Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_policies::{PolicyKind, ProtectMode};
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
        let next = compute_next_use(&c, make(App::Water)()).expect("pre-pass");
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
        let window = 64u64;
        let fast = compute_shared_soon(&c, make(App::Dedup)(), window).expect("pre-pass");
        assert_eq!(fast.len(), rec.blocks.len());
        // Brute force on a prefix (quadratic).
        let n = rec.blocks.len().min(3000);
        for (i, &got) in fast.iter().enumerate().take(n) {
            let mut expected = false;
            for j in i + 1..rec.blocks.len().min(i + 1 + window as usize) {
                if rec.blocks[j] == rec.blocks[i] && rec.cores[j] != rec.cores[i] {
                    expected = true;
                    break;
                }
            }
            assert_eq!(got, expected, "mismatch at stream position {i}");
        }
        // The workload has sharing, so some positions must be positive.
        assert!(fast.iter().any(|&b| b));
        assert!(fast.iter().any(|&b| !b));
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
