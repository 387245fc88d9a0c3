//! Equivalence of the stream-replay fast path with full-hierarchy
//! simulation, plus the pre-pass-count regression from the
//! oracle-around-OPT `simulate` bugfix.
//!
//! The legacy annotation vectors are recomputed *test-locally* (an LLC
//! observer captures the stream, then separate plain-`HashMap` scans
//! derive `next_use` and `shared_soon`), so these tests stay independent
//! of the fused production scan they are checking.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use llc_sharing::{
    compute_annotations, oracle_window, record_stream, replay, replay_kind, replay_on, simulate,
    simulate_on, CombinedProvider, Exec, NextUseProvider, OracleProvider, ReplayDesc, ReplayWrap,
};
use llc_sim::{AccessCtx, AuxProvider, LiveGeneration};
use proptest::prelude::*;
use sharing_aware_llc::policies::{build_oracle_policy_with_mode, build_reactive_policy};
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::trace::VecSource;

fn no_l2_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(4, 4).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

fn with_l2_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: Some(CacheConfig::from_kib(2, 2).expect("valid L2")),
        llc: CacheConfig::from_kib(8, 8).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// Strategy: a random multi-threaded trace over a small block universe
/// (so sets conflict and sharing happens).
fn trace_strategy(len: usize) -> impl Strategy<Value = Vec<MemAccess>> {
    prop::collection::vec((0usize..4, 0u64..96, prop::bool::ANY, 0u64..8), len).prop_map(|v| {
        v.into_iter()
            .map(|(core, block, write, pc)| MemAccess {
                core: CoreId::new(core),
                pc: Pc::new(0x400 + pc * 4),
                addr: Addr::new(block * 64),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                instr_gap: 3,
            })
            .collect()
    })
}

/// Captures the (block, core) LLC reference stream from a full
/// simulation, independently of `record_stream`.
#[derive(Default)]
struct Capture {
    blocks: Vec<BlockAddr>,
    cores: Vec<CoreId>,
}

impl LlcObserver for Capture {
    fn on_hit(&mut self, ctx: &AccessCtx, _: &LiveGeneration, _: bool) {
        self.blocks.push(ctx.block);
        self.cores.push(ctx.core);
    }
    fn on_fill(&mut self, ctx: &AccessCtx) {
        self.blocks.push(ctx.block);
        self.cores.push(ctx.core);
    }
}

/// The pre-fusion `next_use` scan: for each stream position, the index of
/// the next access to the same block (`u64::MAX` if never).
fn legacy_next_use(blocks: &[BlockAddr]) -> Vec<u64> {
    let mut next: HashMap<BlockAddr, u64> = HashMap::new();
    let mut out = vec![u64::MAX; blocks.len()];
    for (i, &b) in blocks.iter().enumerate().rev() {
        out[i] = next.get(&b).copied().unwrap_or(u64::MAX);
        next.insert(b, i as u64);
    }
    out
}

/// The pre-fusion `shared_soon` scan: `true` iff a *different* core
/// touches the block within the next `window` stream positions.
fn legacy_shared_soon(blocks: &[BlockAddr], cores: &[CoreId], window: u64) -> Vec<bool> {
    let mut out = vec![false; blocks.len()];
    for i in 0..blocks.len() {
        for j in i + 1..blocks.len().min(i + 1 + window as usize) {
            if blocks[j] == blocks[i] && cores[j] != cores[i] {
                out[i] = true;
                break;
            }
        }
    }
    out
}

/// Runs `simulate` while capturing the stream (for legacy annotations).
fn capture_stream(cfg: &HierarchyConfig, trace: &[MemAccess]) -> Capture {
    let sets = cfg.llc.sets() as usize;
    let ways = cfg.llc.ways;
    let mut cap = Capture::default();
    simulate_on(
        cfg,
        build_policy(PolicyKind::Lru, sets, ways),
        None,
        VecSource::new(trace.to_vec()),
        vec![&mut cap],
    )
    .expect("capture run");
    cap
}

/// A `TraceSource` wrapper counting how many times the underlying trace
/// was instantiated (one bump per construction).
struct CountingSource {
    inner: VecSource,
}

impl CountingSource {
    fn new(trace: Vec<MemAccess>, count: &Rc<Cell<usize>>) -> Self {
        count.set(count.get() + 1);
        CountingSource {
            inner: VecSource::new(trace),
        }
    }
}

impl TraceSource for CountingSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        self.inner.next_access()
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        self.inner.take_error()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LLC-only replay is bit-identical to full-hierarchy simulation for
    /// every policy kind and for the reactive and predictor-driven wraps,
    /// on hierarchies with and without an L2. The wraps hold global
    /// state, so an explicit shard request must take the sequential
    /// fallback and give the same bits.
    #[test]
    fn replay_matches_full_simulation(trace in trace_strategy(600)) {
        for cfg in [no_l2_cfg(), with_l2_cfg()] {
            let sets = cfg.llc.sets() as usize;
            let ways = cfg.llc.ways;
            let stream = record_stream(&cfg, VecSource::new(trace.clone())).expect("record");
            let plain = [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Nru,
                         PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Drrip,
                         PolicyKind::TaDrrip, PolicyKind::Lip, PolicyKind::Bip,
                         PolicyKind::Dip, PolicyKind::Ship].map(ReplayDesc::plain);
            for desc in plain.into_iter().chain(protection_wraps()) {
                let full = simulate_on(
                    &cfg, boxed_policy(&desc, sets, ways), None,
                    VecSource::new(trace.clone()), vec![]).expect("full run");
                let fast = replay(&cfg, &desc, &stream, None, Exec::Auto, vec![]).expect("replay");
                prop_assert_eq!(full.llc, fast.llc, "{}", desc.label());
                prop_assert_eq!(full.l1, fast.l1);
                prop_assert_eq!(full.l2, fast.l2);
                prop_assert_eq!(full.instructions, fast.instructions);
                prop_assert_eq!(full.trace_accesses, fast.trace_accesses);
                if desc.wrap != ReplayWrap::Plain {
                    let sharded = replay(&cfg, &desc, &stream, None, Exec::Shards(4), vec![])
                        .expect("sharded replay");
                    prop_assert_eq!(&fast, &sharded, "{} at 4 shards", desc.label());
                }
            }
        }
    }

    /// OPT replay matches the legacy pipeline: a capture pass, an
    /// independent next-use scan, and a full annotated simulation.
    #[test]
    fn opt_replay_matches_legacy_pipeline(trace in trace_strategy(500)) {
        for cfg in [no_l2_cfg(), with_l2_cfg()] {
            let sets = cfg.llc.sets() as usize;
            let ways = cfg.llc.ways;
            let cap = capture_stream(&cfg, &trace);
            let full = simulate_on(
                &cfg,
                build_policy(PolicyKind::Opt, sets, ways),
                Some(Box::new(NextUseProvider::new(legacy_next_use(&cap.blocks)))),
                VecSource::new(trace.clone()),
                vec![],
            ).expect("legacy OPT run");
            let fast = simulate(
                &cfg,
                &ReplayDesc::plain(PolicyKind::Opt),
                &mut || VecSource::new(trace.clone()),
                vec![],
            ).expect("fast OPT run");
            prop_assert_eq!(full.llc, fast.llc);
        }
    }

    /// Oracle replay matches the legacy pipeline: a capture pass, an
    /// independent brute-force shared-soon scan, and a full annotated
    /// simulation.
    #[test]
    fn oracle_replay_matches_legacy_pipeline(trace in trace_strategy(400)) {
        let cfg = no_l2_cfg();
        let sets = cfg.llc.sets() as usize;
        let ways = cfg.llc.ways;
        let window = oracle_window(&cfg);
        let cap = capture_stream(&cfg, &trace);
        let shared = legacy_shared_soon(&cap.blocks, &cap.cores, window);
        for base in [PolicyKind::Lru, PolicyKind::Srrip] {
            let full = simulate_on(
                &cfg,
                build_oracle_policy_with_mode(base, sets, ways, ProtectMode::Eviction),
                Some(Box::new(OracleProvider::new(shared.clone()))),
                VecSource::new(trace.clone()),
                vec![],
            ).expect("legacy oracle run");
            let stream = record_stream(&cfg, VecSource::new(trace.clone())).expect("record");
            let desc = ReplayDesc::oracle(base, ProtectMode::Eviction, window);
            let fast = replay(&cfg, &desc, &stream, None, Exec::Auto, vec![])
                .expect("oracle replay");
            prop_assert_eq!(full.llc, fast.llc, "base {}", base.label());
        }
    }
}

/// Every policy kind, for iterating the differential suites below.
const ALL_KINDS: [PolicyKind; 12] = [
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Nru,
    PolicyKind::Srrip,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::TaDrrip,
    PolicyKind::Lip,
    PolicyKind::Bip,
    PolicyKind::Dip,
    PolicyKind::Ship,
    PolicyKind::Opt,
];

/// The reactive (abl4) and predictor-driven (fig9/fig10) wraps over LRU
/// and SRRIP, one per predictor kind.
fn protection_wraps() -> Vec<ReplayDesc> {
    [PolicyKind::Lru, PolicyKind::Srrip]
        .into_iter()
        .flat_map(|base| {
            std::iter::once(ReplayDesc::reactive(base)).chain(
                PredictorKind::ALL
                    .into_iter()
                    .map(move |predictor| ReplayDesc::predicted(base, predictor)),
            )
        })
        .collect()
}

/// The boxed reference policy for a plain, reactive or predictor-driven
/// descriptor, built from the policy crates directly rather than
/// through the descriptor dispatch under test.
fn boxed_policy(desc: &ReplayDesc, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    match desc.wrap {
        ReplayWrap::Plain => build_policy(desc.kind, sets, ways),
        ReplayWrap::Reactive => build_reactive_policy(desc.kind, sets, ways),
        ReplayWrap::Predictor(predictor) => Box::new(PredictorWrap::new(
            build_policy(desc.kind, sets, ways),
            build_predictor(predictor),
            sets,
            ways,
        )),
        ReplayWrap::Oracle { .. } => unreachable!("oracle references need their annotations"),
    }
}

/// A small deterministic multi-threaded trace (blocks conflict across a
/// compact universe so replacement decisions actually differ by policy).
fn fixed_trace(len: usize, blocks: u64) -> Vec<MemAccess> {
    (0..len)
        .map(|i| {
            let r = llc_sim::splitmix64(i as u64 ^ 0x5eed);
            MemAccess {
                core: CoreId::new((r % 4) as usize),
                pc: Pc::new(0x400 + (r >> 8) % 16 * 4),
                addr: Addr::new((r >> 16) % blocks * 64),
                kind: if r.is_multiple_of(5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                instr_gap: 3,
            }
        })
        .collect()
}

/// The monomorphized drivers (`replay_kind`, dispatched per `PolicyKind`
/// through `with_policy!`) are bit-identical to the `Box<dyn>` path
/// (`replay_on` over `build_policy`) for **every** kind.
#[test]
fn monomorphized_replay_matches_dyn_for_every_kind() {
    let cfg = no_l2_cfg();
    let sets = cfg.llc.sets() as usize;
    let ways = cfg.llc.ways;
    let trace = fixed_trace(900, 96);
    let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
    for kind in ALL_KINDS {
        let aux: Option<Box<dyn AuxProvider>> = (kind == PolicyKind::Opt).then(|| {
            Box::new(NextUseProvider::shared(
                compute_annotations(&stream, 0).next_use,
            )) as Box<dyn AuxProvider>
        });
        let dyn_run = replay_on(
            &cfg,
            build_policy(kind, sets, ways),
            aux,
            &stream,
            &mut NullObserver,
        )
        .expect("dyn replay");
        let mono_run = replay_kind(&cfg, kind, &stream, vec![]).expect("mono replay");
        assert_eq!(dyn_run.llc, mono_run.llc, "kind {}", kind.label());
        assert_eq!(dyn_run.policy, mono_run.policy, "kind {}", kind.label());
    }
}

/// Same differential, oracle-wrapped: the monomorphized oracle replay
/// matches the boxed `build_oracle_policy_with_mode` path for every base
/// kind (including OPT, which consumes both annotation vectors).
#[test]
fn monomorphized_oracle_matches_dyn_for_every_base() {
    let cfg = no_l2_cfg();
    let sets = cfg.llc.sets() as usize;
    let ways = cfg.llc.ways;
    let window = oracle_window(&cfg);
    let trace = fixed_trace(700, 96);
    let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
    let ann = compute_annotations(&stream, window);
    for base in ALL_KINDS {
        let aux: Box<dyn AuxProvider> = if base == PolicyKind::Opt {
            Box::new(CombinedProvider::shared(
                ann.next_use.clone(),
                ann.shared_soon.clone(),
            ))
        } else {
            Box::new(OracleProvider::shared(ann.shared_soon.clone()))
        };
        let dyn_run = replay_on(
            &cfg,
            build_oracle_policy_with_mode(base, sets, ways, ProtectMode::Eviction),
            Some(aux),
            &stream,
            &mut NullObserver,
        )
        .expect("dyn oracle replay");
        let desc = ReplayDesc::oracle(base, ProtectMode::Eviction, window);
        let mono_run =
            replay(&cfg, &desc, &stream, None, Exec::Auto, vec![]).expect("mono oracle replay");
        assert_eq!(dyn_run.llc, mono_run.llc, "oracle base {}", base.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel-edge sweep: associativities across the whole supported
    /// range — including `ways = 64`, where the branchless scan's
    /// `full_mask` must saturate to all-ones without overflowing — and
    /// shard counts that do not divide the set count (non-power-of-two
    /// per-shard set ranges). Monomorphized sequential, `Box<dyn>`
    /// sequential and monomorphized sharded replay must all agree.
    #[test]
    fn kernel_edges_ways_and_shard_sweep(
        trace in trace_strategy(300),
        ways in 1usize..=64,
        sets_pow in 0u32..4,
        shards in 1usize..=7,
    ) {
        let sets = 1u64 << sets_pow;
        let cfg = HierarchyConfig {
            cores: 4,
            l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
            l2: None,
            llc: CacheConfig::new(sets * ways as u64 * 64, ways).expect("valid LLC"),
            inclusion: Inclusion::NonInclusive,
        };
        let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
        for kind in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Opt] {
            let aux: Option<Box<dyn AuxProvider>> = (kind == PolicyKind::Opt).then(|| {
                Box::new(NextUseProvider::shared(compute_annotations(&stream, 0).next_use))
                    as Box<dyn AuxProvider>
            });
            let dyn_run = replay_on(
                &cfg,
                build_policy(kind, cfg.llc.sets() as usize, ways),
                aux,
                &stream,
                &mut NullObserver,
            ).expect("dyn replay");
            let mono_run = replay_kind(&cfg, kind, &stream, vec![]).expect("mono replay");
            let desc = ReplayDesc::plain(kind);
            let sharded = replay(&cfg, &desc, &stream, None, Exec::Shards(shards), vec![])
                .expect("sharded");
            prop_assert_eq!(
                &dyn_run.llc, &mono_run.llc,
                "mono vs dyn, kind {} ways {} sets {}", kind.label(), ways, sets);
            prop_assert_eq!(
                &mono_run.llc, &sharded.llc,
                "sharded vs sequential, kind {} ways {} sets {} shards {}",
                kind.label(), ways, sets, shards);
        }
    }
}

/// The oracle-around-OPT pre-pass bugfix: the trace must be
/// instantiated exactly once per run (historically the OPT-base oracle
/// paid THREE pre-pass instantiations).
#[test]
fn annotated_runs_instantiate_the_trace_once() {
    let cfg = no_l2_cfg();
    let trace: Vec<MemAccess> = (0..400)
        .map(|i| MemAccess {
            core: CoreId::new(i % 4),
            pc: Pc::new(0x400),
            addr: Addr::new((i as u64 % 64) * 64),
            kind: if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            instr_gap: 3,
        })
        .collect();

    let window = oracle_window(&cfg);
    let count = Rc::new(Cell::new(0usize));
    for desc in [
        ReplayDesc::plain(PolicyKind::Opt),
        ReplayDesc::oracle(PolicyKind::Opt, ProtectMode::Eviction, window),
        ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, window),
    ] {
        count.set(0);
        simulate(
            &cfg,
            &desc,
            &mut || CountingSource::new(trace.clone(), &count),
            vec![],
        )
        .expect("annotated run");
        assert_eq!(
            count.get(),
            1,
            "simulate({}) must record the stream exactly once",
            desc.label()
        );
    }
}

/// Builds a zero-copy [`StreamView`] over the in-memory `.llcs` encoding
/// of `stream` — exactly the image `StreamStore` persists and
/// `load_view` maps back.
fn view_of(
    stream: &sharing_aware_llc::trace::RecordedStream,
) -> sharing_aware_llc::trace::StreamView {
    let bytes = stream.to_vec().expect("encode stream");
    sharing_aware_llc::trace::StreamView::new(std::sync::Arc::from(bytes.into_boxed_slice()))
        .expect("validated view")
}

/// Zero-copy view-backed replay is bit-identical to owned replay for
/// **every** policy kind, **every** oracle base and the reactive and
/// predictor-driven wraps: the daemon's
/// store-hit fast path (one arena allocation, per-record decode inside
/// the kernel) must never change a single replayed bit.
#[test]
fn view_replay_matches_owned_for_every_kind_and_oracle_base() {
    let cfg = with_l2_cfg();
    let window = oracle_window(&cfg);
    let trace = fixed_trace(900, 96);
    let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
    let view = view_of(&stream);
    assert_eq!(
        sharing_aware_llc::trace::StreamAccess::len(&view),
        stream.len()
    );

    for kind in ALL_KINDS {
        let owned = replay_kind(&cfg, kind, &stream, vec![]).expect("owned replay");
        let viewed = replay_kind(&cfg, kind, &view, vec![]).expect("view replay");
        assert_eq!(owned.llc, viewed.llc, "kind {}", kind.label());
        assert_eq!(owned.policy, viewed.policy, "kind {}", kind.label());
        assert_eq!(owned.l1, viewed.l1, "kind {}", kind.label());
        assert_eq!(owned.l2, viewed.l2, "kind {}", kind.label());
        assert_eq!(
            owned.instructions,
            viewed.instructions,
            "kind {}",
            kind.label()
        );
    }
    for base in ALL_KINDS {
        for mode in [ProtectMode::Eviction, ProtectMode::Insertion] {
            let desc = ReplayDesc::oracle(base, mode, window);
            let owned = replay(&cfg, &desc, &stream, None, Exec::Auto, vec![])
                .expect("owned oracle replay");
            let viewed =
                replay(&cfg, &desc, &view, None, Exec::Auto, vec![]).expect("view oracle replay");
            assert_eq!(
                owned.llc,
                viewed.llc,
                "oracle base {} ({mode:?})",
                base.label()
            );
        }
    }
    for desc in protection_wraps() {
        let owned = replay(&cfg, &desc, &stream, None, Exec::Auto, vec![]).expect("owned replay");
        let viewed = replay(&cfg, &desc, &view, None, Exec::Auto, vec![]).expect("view replay");
        assert_eq!(owned, viewed, "{}", desc.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form over random traces: the view-backed annotations and
    /// replays reproduce the owned ones bit-for-bit (LRU and OPT — the
    /// policies whose replays consume the stream most differently: OPT
    /// walks it backwards first for next-use annotations).
    #[test]
    fn view_replay_matches_owned_on_random_traces(trace in trace_strategy(600)) {
        let cfg = no_l2_cfg();
        let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
        let view = view_of(&stream);
        let window = oracle_window(&cfg);
        let owned_ann = compute_annotations(&stream, window);
        let view_ann = compute_annotations(&view, window);
        prop_assert_eq!(owned_ann.next_use, view_ann.next_use);
        prop_assert_eq!(owned_ann.shared_soon, view_ann.shared_soon);
        for kind in [PolicyKind::Lru, PolicyKind::Opt] {
            let owned = replay_kind(&cfg, kind, &stream, vec![]).expect("owned replay");
            let viewed = replay_kind(&cfg, kind, &view, vec![]).expect("view replay");
            prop_assert_eq!(owned.llc, viewed.llc, "kind {}", kind.label());
        }
    }
}
