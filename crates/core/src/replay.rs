//! The stream-replay fast path: record the LLC reference stream once,
//! then replay any number of replacement policies directly against the
//! LLC — skipping trace generation and private-cache simulation entirely.
//!
//! # Why this is exact
//!
//! In the default non-inclusive hierarchy the LLC reference stream — the
//! demand accesses *and* the coherence upgrades that mutate resident lines
//! — is a pure function of the workload and the private caches,
//! independent of the LLC replacement policy (DESIGN.md "Why pre-passes
//! are exact"). [`record_stream`] captures that stream (plus the L1/L2
//! counters and instruction totals, which are equally policy-independent)
//! from one full-hierarchy run; [`replay`] then drives a bare
//! [`Llc`] with it, producing **bit-identical**
//! [`LlcStats`](llc_sim::LlcStats) to a full
//! [`simulate_on`](crate::simulate_on) run of the same policy.
//!
//! # The inclusive-hierarchy caveat
//!
//! With [`Inclusion::Inclusive`] an LLC eviction back-invalidates private
//! copies, so the reference stream *depends on the LLC policy*: a stream
//! recorded under LRU is only an approximation of what another policy
//! would see. Recording is still permitted (the oracle pre-passes have
//! always used exactly this approximation for the `abl2` ablation), but
//! the replay drivers refuse inclusive configurations — measured runs
//! must fall back to full simulation there, and
//! [`simulate`](crate::simulate) does exactly that.
//!
//! # One stream type
//!
//! Every entry point here — [`replay`], its driver [`replay_on`] and
//! [`compute_annotations`] — takes a `&`[`RecordedStream`], the owned
//! plane representation. A [`StreamCache`] hands out
//! `Arc<RecordedStream>` whether it recorded the stream or loaded it
//! from a store, where the `.llcs` image is validated and decoded once
//! (see [`StreamStore::fetch`]), so there is no second representation
//! whose replays could drift.
//!
//! # One recording per private hierarchy
//!
//! A recording is identified by what its stream depends on, the
//! [recording fingerprint](HierarchyConfig::recording_fingerprint):
//! cores, private levels and inclusion, plus the LLC only when it is
//! inclusive. So every non-inclusive LLC size of one workload replays
//! one recording, one cache entry and one `.llcs` file, while replay and
//! annotation nodes stay keyed per LLC size by [`StreamKey::fingerprint`].
//! Each cached recording is also scanned at most once for annotations:
//! the scan lives in the recording's cache entry, and every window any
//! descriptor asks of it is derived from that scan.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use fxhash::FxHashMap;
use llc_dag::{ReplayDesc, ReplayWrap};
use llc_policies::{mono, with_policy, OracleWrap, PolicyKind, ReactiveWrap};
use llc_predictors::{build_predictor, PredictorWrap};
use llc_sim::{
    Aux, AuxProvider, BlockAddr, Cmp, ConfigError, CoreId, Fold, HierarchyConfig, Inclusion, Llc,
    LlcObserver, MemAccess, MultiObserver, NullObserver, PrivateCacheStats, RecordCmp,
    ReplacementPolicy, SimError,
};
use llc_telemetry::metrics::{global, Counter, Gauge};
use llc_telemetry::spans;
use llc_trace::{App, LoadError, RecordedStream, Scale, StreamStore, TraceSource};

use crate::error::RunError;
use crate::runner::{RunResult, StreamRecorder};

/// Global mirrors of [`StreamCacheStats`] plus the stream-recording
/// counter, resolved once and then touched with relaxed atomics only.
/// Counter bumps happen at the same sites as the per-cache stats, so
/// the `/metrics` view aggregates every cache in the process.
struct ReplayMetrics {
    records: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_disk_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_disk_errors: Arc<Counter>,
    cache_bytes: Arc<Gauge>,
    replays: Arc<Counter>,
    replay_refs: Arc<Counter>,
    annotation_scans: Arc<Counter>,
}

static METRICS: LazyLock<ReplayMetrics> = LazyLock::new(|| ReplayMetrics {
    records: global().counter(
        "llc_stream_records_total",
        "Reference streams recorded with a full-hierarchy simulation",
    ),
    cache_hits: global().counter(
        "llc_stream_cache_hits_total",
        "Stream requests answered from process memory",
    ),
    cache_disk_hits: global().counter(
        "llc_stream_cache_disk_hits_total",
        "Stream requests answered by loading a .llcs file from the attached store",
    ),
    cache_misses: global().counter(
        "llc_stream_cache_misses_total",
        "Stream requests that had to record the stream with a full simulation",
    ),
    cache_evictions: global().counter(
        "llc_stream_cache_evictions_total",
        "Entries evicted from memory by the byte cap",
    ),
    cache_disk_errors: global().counter(
        "llc_stream_cache_disk_errors_total",
        "Stored-copy failures recovered by re-recording or shrugged off",
    ),
    cache_bytes: global().gauge(
        "llc_stream_cache_bytes",
        "Encoded stream bytes currently held in memory across all caches",
    ),
    replays: global().counter(
        "llc_replays_total",
        "Replays executed over a recorded stream (one per replay() call)",
    ),
    replay_refs: global().counter(
        "llc_replay_refs_total",
        "LLC references replayed, summed over every replay() call",
    ),
    annotation_scans: global().counter(
        "llc_annotation_scans_total",
        "Backward annotation scans: one per cached recording, one per ad-hoc request",
    ),
});

/// Records the policy-independent LLC reference stream of `trace` under
/// `config` with one full-hierarchy simulation (LRU in the LLC — the
/// recording policy is irrelevant to the stream in non-inclusive mode and
/// is the conventional approximation in inclusive mode).
///
/// # Errors
///
/// Returns [`RunError::Sim`] for an invalid configuration or an
/// out-of-range core id, and [`RunError::Trace`] if the source ends on a
/// decode error.
pub fn record_stream<W: TraceSource>(
    config: &HierarchyConfig,
    trace: W,
) -> Result<RecordedStream, RunError> {
    let _span = spans::span("record_stream");
    METRICS.records.inc();
    if config.inclusion == Inclusion::NonInclusive {
        // Non-inclusive: the stream is independent of LLC state, so the
        // record kernel skips LLC simulation entirely — private levels and
        // the coherence directory are the whole hierarchy.
        let kernel = RecordCmp::new(*config).map_err(SimError::from)?;
        record_stream_with(config, trace, kernel)
    } else {
        // Inclusive (approximation, see `compute_annotations`): the LLC's
        // back-invalidations shape the stream, so drive the full
        // hierarchy. The recording LLC is a concrete monomorphized LRU.
        let sets = config.llc.sets() as usize;
        let ways = config.llc.ways;
        let kernel = Cmp::new(*config, mono::lru(sets, ways)).map_err(SimError::from)?;
        record_stream_with(config, trace, kernel)
    }
}

/// A hierarchy the record loop can drive: the full [`Cmp`] (inclusive
/// configs) or the LLC-free [`RecordCmp`] (non-inclusive configs). The
/// loop monomorphizes per kernel, and the recorder observer is concrete,
/// so the record hot path compiles with zero virtual dispatch — the only
/// indirect call left per *trace record* is the generator's
/// `next_access`, batched below.
trait RecordKernel {
    fn check_access(&self, a: &MemAccess) -> Result<(), SimError>;
    fn access(&mut self, a: MemAccess, rec: &mut StreamRecorder);
    fn instructions(&self) -> u64;
    fn trace_accesses(&self) -> u64;
    fn l1_stats(&self) -> PrivateCacheStats;
    fn l2_stats(&self) -> PrivateCacheStats;
}

impl<P: ReplacementPolicy> RecordKernel for Cmp<P> {
    fn check_access(&self, a: &MemAccess) -> Result<(), SimError> {
        Cmp::check_access(self, a)
    }
    fn access(&mut self, a: MemAccess, rec: &mut StreamRecorder) {
        Cmp::access(self, a, rec);
    }
    fn instructions(&self) -> u64 {
        Cmp::instructions(self)
    }
    fn trace_accesses(&self) -> u64 {
        Cmp::trace_accesses(self)
    }
    fn l1_stats(&self) -> PrivateCacheStats {
        Cmp::l1_stats(self)
    }
    fn l2_stats(&self) -> PrivateCacheStats {
        Cmp::l2_stats(self)
    }
}

impl RecordKernel for RecordCmp {
    fn check_access(&self, a: &MemAccess) -> Result<(), SimError> {
        RecordCmp::check_access(self, a)
    }
    fn access(&mut self, a: MemAccess, rec: &mut StreamRecorder) {
        RecordCmp::access(self, a, rec);
    }
    fn instructions(&self) -> u64 {
        RecordCmp::instructions(self)
    }
    fn trace_accesses(&self) -> u64 {
        RecordCmp::trace_accesses(self)
    }
    fn l1_stats(&self) -> PrivateCacheStats {
        RecordCmp::l1_stats(self)
    }
    fn l2_stats(&self) -> PrivateCacheStats {
        RecordCmp::l2_stats(self)
    }
}

fn record_stream_with<W: TraceSource, K: RecordKernel>(
    config: &HierarchyConfig,
    mut trace: W,
    mut kernel: K,
) -> Result<RecordedStream, RunError> {
    let mut rec = StreamRecorder::with_capacity(trace.len_hint());
    let mut instr_deltas = Vec::with_capacity(rec.blocks.capacity());
    // Instructions accumulated since the previous LLC access; folded into
    // the next access's delta (an observer cannot see `instr_gap`, so the
    // recording loop threads it through here).
    let mut pending_instr = 0u64;
    // Batch trace generation so the generator's per-record virtual
    // dispatch and the private-cache probe loop stop interleaving: fill a
    // chunk of records, then simulate the chunk in one tight loop. The
    // chunk fits comfortably in L1d (4096 × 32 B), so the handoff costs
    // one extra pass over cache-resident data.
    const RECORD_CHUNK: usize = 4096;
    let mut chunk: Vec<MemAccess> = Vec::with_capacity(RECORD_CHUNK);
    loop {
        chunk.clear();
        while chunk.len() < RECORD_CHUNK {
            match trace.next_access() {
                Some(a) => chunk.push(a),
                None => break,
            }
        }
        for &a in &chunk {
            kernel.check_access(&a)?;
            pending_instr += u64::from(a.instr_gap.max(1));
            let before = rec.blocks.len();
            kernel.access(a, &mut rec);
            if rec.blocks.len() > before {
                instr_deltas.push(pending_instr);
                pending_instr = 0;
            }
        }
        if chunk.len() < RECORD_CHUNK {
            break;
        }
    }
    if let Some(e) = trace.take_error() {
        return Err(RunError::Trace(e));
    }
    Ok(RecordedStream {
        fingerprint: config.recording_fingerprint(),
        blocks: rec.blocks,
        cores: rec.cores,
        pcs: rec.pcs,
        kinds: rec.kinds,
        instr_deltas,
        upgrades: rec.upgrades,
        instructions: kernel.instructions(),
        trace_accesses: kernel.trace_accesses(),
        l1: kernel.l1_stats(),
        l2: kernel.l2_stats(),
    })
}

fn check_replayable(config: &HierarchyConfig, stream: &RecordedStream) -> Result<(), RunError> {
    config.validate().map_err(SimError::from)?;
    if config.inclusion == Inclusion::Inclusive {
        return Err(ConfigError::new(
            "stream replay requires a non-inclusive hierarchy (inclusive back-invalidations \
             make the LLC reference stream policy-dependent); run the full simulation instead",
        )
        .into());
    }
    if stream.fingerprint != config.recording_fingerprint() {
        return Err(ConfigError::new(format!(
            "recorded stream fingerprint {:#x} does not match the hierarchy's recording \
             fingerprint {:#x}",
            stream.fingerprint,
            config.recording_fingerprint()
        ))
        .into());
    }
    Ok(())
}

/// Replays the policy `desc` names over a [`RecordedStream`]: the one
/// entry point for every base policy and wrap. Only the LLC is
/// simulated; the result's L1/L2 counters and instruction totals come
/// from the recording. For any non-inclusive configuration the returned
/// [`LlcStats`](llc_sim::LlcStats) are bit-identical to a full-hierarchy
/// [`simulate_on`](crate::simulate_on) of the same policy over the same
/// workload.
///
/// * `ann` supplies the descriptor's annotation vectors (see
///   [`ReplayDesc::annotation_window`]) when the caller already holds
///   them — the DAG memo layer loads them from its store or derives
///   them from the recording's cached scan. `None` computes them with
///   [`compute_annotations`] and keeps nothing; descriptors that need no
///   annotations ignore the argument.
/// * `observers` are fed in stream order.
///
/// The replay is one sequential pass on the calling thread; parallelism
/// comes from running replays of different apps and descriptors side by
/// side. The policy is built once, straight from its monomorphized
/// constructor, so the inner loop is specialized to the concrete policy
/// and observer types.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the configuration is invalid, inclusive
/// (see the module docs), or does not match the stream's recording
/// fingerprint ([`HierarchyConfig::recording_fingerprint`]).
pub fn replay(
    config: &HierarchyConfig,
    desc: &ReplayDesc,
    stream: &RecordedStream,
    ann: Option<&Annotations>,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    METRICS.replays.inc();
    METRICS.replay_refs.add(stream.len() as u64);
    let computed;
    let ann = match (desc.annotation_window(), ann) {
        (None, _) => None,
        (Some(_), Some(ann)) => Some(ann),
        (Some(window), None) => {
            computed = compute_annotations(stream, window);
            Some(&computed)
        }
    };
    let task = Execute {
        config,
        stream,
        observers,
    };
    dispatch(desc, config.llc.sets() as usize, config.llc.ways, ann, task)
}

/// Replays a bare `kind`: shorthand for [`replay`] of
/// [`ReplayDesc::plain`].
///
/// # Errors
///
/// Same conditions as [`replay`].
pub fn replay_kind(
    config: &HierarchyConfig,
    kind: PolicyKind,
    stream: &RecordedStream,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    replay(config, &ReplayDesc::plain(kind), stream, None, observers)
}

/// A computation over the concrete policy a [`ReplayDesc`] names: what
/// [`dispatch`] runs once it has resolved the descriptor.
pub(crate) trait PolicyTask {
    type Output;

    /// Runs with the descriptor's concrete policy and its annotation
    /// feed, boxed for an LLC's aux slot; `None` for a descriptor that
    /// reads none.
    fn run<P: ReplacementPolicy + 'static>(
        self,
        policy: P,
        aux: Option<Box<dyn AuxProvider>>,
    ) -> Self::Output;
}

/// The one place a [`ReplayDesc`] becomes a running policy: one
/// [`with_policy!`] dispatch on the base kind and one `match` on the
/// wrap build the concrete policy (`P`, `OracleWrap<P>`,
/// `ReactiveWrap<P>` or `PredictorWrap<P>`), which `task` runs with the
/// descriptor's [`AnnotationFeed`] out of `ann`: the descriptor's
/// annotations, `None` exactly when it has no
/// [`annotation_window`](ReplayDesc::annotation_window).
pub(crate) fn dispatch<T: PolicyTask>(
    desc: &ReplayDesc,
    sets: usize,
    ways: usize,
    ann: Option<&Annotations>,
    task: T,
) -> T::Output {
    debug_assert_eq!(desc.annotation_window().is_some(), ann.is_some());
    let feed = ann.map(|ann| Box::new(AnnotationFeed::new(desc, ann)) as Box<dyn AuxProvider>);
    with_policy!(desc.kind, |ctor| match desc.wrap {
        ReplayWrap::Plain => task.run(ctor(sets, ways), feed),
        ReplayWrap::Oracle { mode, .. } => task.run(
            OracleWrap::with_mode(ctor(sets, ways), sets, ways, mode),
            feed,
        ),
        ReplayWrap::Reactive => task.run(ReactiveWrap::new(ctor(sets, ways)), feed),
        ReplayWrap::Predictor(predictor) => task.run(
            PredictorWrap::new(ctor(sets, ways), build_predictor(predictor), sets, ways),
            feed,
        ),
    })
}

/// One [`replay_on`] pass of the descriptor's policy, which [`replay`]
/// runs for every descriptor.
struct Execute<'a, 'o> {
    config: &'a HierarchyConfig,
    stream: &'a RecordedStream,
    observers: Vec<&'o mut dyn LlcObserver>,
}

impl PolicyTask for Execute<'_, '_> {
    type Output = Result<RunResult, RunError>;

    fn run<P: ReplacementPolicy + 'static>(
        self,
        policy: P,
        aux: Option<Box<dyn AuxProvider>>,
    ) -> Self::Output {
        let Execute {
            config,
            stream,
            observers,
        } = self;
        if observers.is_empty() {
            replay_on(config, policy, aux, stream, &mut NullObserver)
        } else {
            replay_on(
                config,
                policy,
                aux,
                stream,
                &mut MultiObserver::new(observers),
            )
        }
    }
}

/// The generic replay driver over a concrete policy `P` and observer
/// `O`: each (`P`, `O`) pair compiles its own specialized inner loop —
/// policy callbacks and observer hooks are static calls (inlined for
/// trivial hooks like [`NullObserver`]'s), and a policy replayed without
/// an aux provider skips the per-access virtual `aux_for` call
/// entirely. [`replay`] dispatches here through
/// [`with_policy!`](llc_policies::with_policy); call it directly to
/// replay a boxed or custom policy.
///
/// All telemetry is phase-level: one span per replay, zero atomics on the
/// per-access path (see `tests/telemetry.rs`).
///
/// # Errors
///
/// Same conditions as [`replay`].
pub fn replay_on<P, O>(
    config: &HierarchyConfig,
    policy: P,
    aux: Option<Box<dyn AuxProvider>>,
    stream: &RecordedStream,
    obs: &mut O,
) -> Result<RunResult, RunError>
where
    P: ReplacementPolicy,
    O: LlcObserver + ?Sized,
{
    check_replayable(config, stream)?;
    let mut llc = Llc::new(config.llc, policy);
    let _span = spans::span_with(|| format!("replay {}", llc.policy().name()));
    if let Some(aux) = aux {
        llc.set_aux_provider(aux);
    }
    let upgrades = &stream.upgrades;
    let mut up = 0usize;
    // Next upgrade timestamp, hoisted so the common no-upgrade-due case
    // is one register compare per access instead of a bounds check plus
    // a load from the upgrade list.
    let mut next_at = upgrades.first().map_or(u64::MAX, |u| u.at);
    // Lockstep plane walks: the inner loop is free of bounds checks and
    // per-record virtual calls.
    for (i, a) in stream.accesses().enumerate() {
        // Upgrades recorded at LLC time `i` happened before access `i`.
        if i as u64 >= next_at {
            while up < upgrades.len() && upgrades[up].at <= i as u64 {
                llc.note_upgrade(upgrades[up].block, upgrades[up].core);
                obs.on_upgrade(upgrades[up].block, upgrades[up].core);
                up += 1;
            }
            next_at = upgrades.get(up).map_or(u64::MAX, |u| u.at);
        }
        llc.access(a.block, a.pc, a.core, a.kind, obs);
    }
    // Trailing upgrades (after the last access) land before the flush.
    while up < upgrades.len() {
        llc.note_upgrade(upgrades[up].block, upgrades[up].core);
        obs.on_upgrade(upgrades[up].block, upgrades[up].core);
        up += 1;
    }
    llc.flush(obs);
    Ok(RunResult {
        policy: llc.policy().name(),
        llc: llc.stats(),
        l1: stream.l1,
        l2: stream.l2,
        instructions: stream.instructions,
        trace_accesses: stream.trace_accesses,
    })
}

/// Both offline annotation vectors of one window over a recorded stream
/// (see [`compute_annotations`]).
///
/// The vectors sit behind [`Arc`] so the windows derived from one scan
/// share its `next_use`, and a replay's feed shares the caller's copy.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// For each access, the stream index of the next access to the same
    /// block (`u64::MAX` = never used again). Feeds Belady's OPT.
    pub next_use: Arc<Vec<u64>>,
    /// For each access, whether a *different core* touches the block
    /// within the oracle retention window. Feeds the oracle wrapper.
    pub shared_soon: Arc<Vec<bool>>,
}

/// Computes `next_use` and `shared_soon` for one oracle `window` over
/// `stream`.
///
/// `shared_soon[t]` is the oracle's answer: `true` iff the block accessed
/// at stream position `t` is touched by a *different core* within the
/// next `window` LLC accesses. This is the precise form of the paper's
/// fill-time oracle question — "will this block be shared during its
/// residency?" — made policy-independent by bounding "residency" with a
/// retention horizon proportional to the LLC capacity (see
/// [`oracle_window`](crate::oracle_window)).
///
/// This is the pure backward recurrence with the window applied inside
/// it: nothing is kept or charged. Experiments read the same vectors
/// from the recording's one cached scan instead, which a
/// [`StreamCache`] entry keeps for every window and LLC size.
///
/// A stream recorded on an [`Inclusion::Inclusive`] hierarchy is *not*
/// policy-independent (back-invalidations feed back into the private
/// caches), so its annotations are an approximation there — the `abl2`
/// ablation quantifies the effect.
pub fn compute_annotations(stream: &RecordedStream, window: u64) -> Annotations {
    let _span = spans::span("compute_annotations");
    let mut shared_soon = vec![false; stream.len()];
    let next_use = scan_backward(stream, |i, next_diff| {
        shared_soon[i] = next_diff != u64::MAX && next_diff - i as u64 <= window;
    });
    Annotations {
        next_use: Arc::new(next_use),
        shared_soon: Arc::new(shared_soon),
    }
}

/// The one backward recurrence both annotations come from. Walking the
/// stream backwards, it keeps for each block its nearest future access
/// (`n1`, issued by core `c1`) and the nearest future access by a core
/// other than `c1` (`n2`). It returns `next_use` (`n1` at each access)
/// and hands `diff` each access's nearest future access by a core other
/// than its own (`u64::MAX` = none).
fn scan_backward(stream: &RecordedStream, mut diff: impl FnMut(usize, u64)) -> Vec<u64> {
    METRICS.annotation_scans.inc();
    let mut next_use = vec![u64::MAX; stream.len()];
    struct Next {
        n1: u64,
        c1: CoreId,
        n2: u64,
    }
    let mut next: FxHashMap<BlockAddr, Next> = FxHashMap::default();
    // Backward walk (the access iterator is `DoubleEnded + ExactSize`
    // exactly for this pass).
    for (i, a) in stream.accesses().enumerate().rev() {
        let block = a.block;
        let core = a.core;
        if let Some(e) = next.get(&block) {
            next_use[i] = e.n1;
            diff(i, if e.c1 != core { e.n1 } else { e.n2 });
        }
        let entry = next.entry(block).or_insert(Next {
            n1: u64::MAX,
            c1: core,
            n2: u64::MAX,
        });
        let new_n2 = if entry.n1 != u64::MAX && entry.c1 != core {
            entry.n1
        } else {
            entry.n2
        };
        *entry = Next {
            n1: i as u64,
            c1: core,
            n2: new_n2,
        };
    }
    next_use
}

/// The window-free result of one backward scan over a recorded stream:
/// `next_use`, plus each access's distance to the nearest future access
/// to its block by a different core. Any window below `u32::MAX` derives
/// its [`Annotations`] from it with one pass over the distances, so a
/// recording is scanned once however many windows and LLC sizes read
/// it. It costs 12 bytes per reference and lives in the recording's
/// [`StreamCache`] entry (see [`StreamCache::annotations`]).
#[derive(Debug)]
struct AnnotationScan {
    next_use: Arc<Vec<u64>>,
    /// Distance to the nearest differing-core access, saturated:
    /// `u32::MAX` means none, or one at least `u32::MAX` accesses away.
    share_dist: Vec<u32>,
}

impl AnnotationScan {
    /// Scans `stream` once, backwards.
    fn new(stream: &RecordedStream) -> Self {
        let mut share_dist = vec![u32::MAX; stream.len()];
        let next_use = scan_backward(stream, |i, next_diff| {
            if next_diff != u64::MAX {
                share_dist[i] = u32::try_from(next_diff - i as u64).unwrap_or(u32::MAX);
            }
        });
        AnnotationScan {
            next_use: Arc::new(next_use),
            share_dist,
        }
    }

    /// The bytes the scan holds.
    fn bytes(&self) -> u64 {
        (self.next_use.len() * std::mem::size_of::<u64>()
            + self.share_dist.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The annotations of `window`, sharing this scan's `next_use`.
    /// `window` must be below `u32::MAX`, where a saturated distance
    /// still answers exactly ([`compute_annotations`] answers from there
    /// on).
    fn annotations(&self, window: u64) -> Annotations {
        let window = u32::try_from(window)
            .ok()
            .filter(|&w| w < u32::MAX)
            .expect("compute_annotations answers windows of u32::MAX and above");
        Annotations {
            next_use: Arc::clone(&self.next_use),
            shared_soon: Arc::new(self.share_dist.iter().map(|&d| d <= window).collect()),
        }
    }
}

/// The aux provider feeding a descriptor its annotations: Belady
/// next-use chains to an OPT base, the oracle's shared-soon answers to
/// an oracle wrap, and both to `Oracle(OPT)`. It shares the vectors of
/// the [`Annotations`] it is built from.
#[derive(Debug, Clone)]
pub struct AnnotationFeed {
    next_use: Option<Arc<Vec<u64>>>,
    shared_soon: Option<Arc<Vec<bool>>>,
}

impl AnnotationFeed {
    /// The feed of the vectors in `ann` that `desc` reads: `next_use`
    /// if its base policy is OPT, `shared_soon` if it is an oracle wrap.
    pub fn new(desc: &ReplayDesc, ann: &Annotations) -> Self {
        AnnotationFeed {
            next_use: (desc.kind == PolicyKind::Opt).then(|| Arc::clone(&ann.next_use)),
            shared_soon: matches!(desc.wrap, ReplayWrap::Oracle { .. })
                .then(|| Arc::clone(&ann.shared_soon)),
        }
    }
}

impl AuxProvider for AnnotationFeed {
    fn aux_for(&mut self, time: u64, _block: BlockAddr) -> Aux {
        let t = time as usize;
        Aux {
            next_use: self
                .next_use
                .as_ref()
                .and_then(|v| v.get(t).copied())
                .filter(|&n| n != u64::MAX),
            oracle_shared: self
                .shared_soon
                .as_ref()
                .map(|v| v.get(t).copied().unwrap_or(false)),
        }
    }
}

/// Identity of a workload for stream-cache keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// A single multi-threaded application.
    App(App),
    /// A named multiprogrammed mix (experiment `abl5`).
    Mix(&'static str),
}

impl WorkloadId {
    /// The workload's stable name (an app label or a mix name).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadId::App(app) => app.label(),
            WorkloadId::Mix(name) => name,
        }
    }
}

/// A stream's identity: workload × thread count × scale × hierarchy. It
/// has two fingerprints: [`fingerprint`](Self::fingerprint) names the
/// stream node that replay and annotation nodes hang off, one per LLC
/// size; [`recording_fingerprint`](Self::recording_fingerprint) names
/// the recording itself, which every non-inclusive LLC size shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The workload.
    pub workload: WorkloadId,
    /// Thread/core count the workload was generated with.
    pub cores: usize,
    /// Workload scale.
    pub scale: Scale,
    /// The hierarchy the stream was recorded under.
    pub config: HierarchyConfig,
}

impl StreamKey {
    /// A stable 64-bit fingerprint of the stream node, safe to persist:
    /// replay and annotation nodes of the artifact DAG are keyed under
    /// it, so — unlike `Hash` — it is an [`llc_sim::Fold`] over the
    /// workload name, thread count, scale and the hierarchy's full
    /// fingerprint (LLC included), and does not change across Rust
    /// releases, platforms or process restarts.
    pub fn fingerprint(&self) -> u64 {
        self.fold(0x4c4c_4353_4b45_5931, self.config.fingerprint()) // "LLCSKEY1"
    }

    /// A stable 64-bit fingerprint of the recording: the same fold over
    /// the hierarchy's
    /// [`recording_fingerprint`](HierarchyConfig::recording_fingerprint),
    /// so every non-inclusive LLC size of one workload has the same
    /// one. It keys the [`StreamCache`] and content-addresses `.llcs`
    /// recordings in an on-disk [`StreamStore`].
    pub fn recording_fingerprint(&self) -> u64 {
        self.fold(0x4c4c_4353_524b_5931, self.config.recording_fingerprint()) // "LLCSRKY1"
    }

    fn fold(&self, seed: u64, config_fp: u64) -> u64 {
        Fold::new(seed)
            .u64(match self.workload {
                WorkloadId::App(_) => 1,
                WorkloadId::Mix(_) => 2,
            })
            .str(self.workload.label())
            .u64(self.cores as u64)
            .str(&self.scale.to_string())
            .u64(config_fp)
            .finish()
    }
}

/// A filled cache slot: the recording and its annotation scan, built by
/// the first requester of any window (see [`StreamCache::annotations`])
/// and dropped with the slot. The `Arc` lets the scan be built outside
/// every cache lock while concurrent requesters wait for it.
#[derive(Debug, Clone)]
struct Resident {
    stream: Arc<RecordedStream>,
    scan: Arc<OnceLock<AnnotationScan>>,
}

impl Resident {
    /// The bytes charged for this slot: the stream's encoded size, plus
    /// its scan once built.
    fn bytes(&self) -> u64 {
        self.stream.encoded_len() as u64 + self.scan.get().map_or(0, AnnotationScan::bytes)
    }
}

type Slot = Arc<Mutex<Option<Resident>>>;

/// Counters of a [`StreamCache`] and its optional disk backing — the
/// numbers `llc-serve` reports under `GET /store/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCacheStats {
    /// Requests answered from process memory.
    pub hits: u64,
    /// Requests answered by loading a `.llcs` file from the attached
    /// [`StreamStore`] (no simulation ran).
    pub disk_hits: u64,
    /// Requests that had to record the stream with a full simulation.
    pub misses: u64,
    /// Entries evicted from memory by the byte cap (their disk copies,
    /// if any, survive).
    pub evictions: u64,
    /// Stored-copy failures that were recovered by re-recording (a
    /// corrupt `.llcs` file, or one whose header names another recording
    /// fingerprint) or
    /// shrugged off (a failed persist).
    pub disk_errors: u64,
    /// Corrupt or foreign `.llcs` files moved into the store's
    /// `quarantine/` directory (a subset of `disk_errors`).
    pub quarantined: u64,
    /// Bytes currently charged against the cap: each resident stream's
    /// encoded size, plus its annotation scan once one is built.
    pub bytes: u64,
    /// The configured in-memory byte cap, if any.
    pub limit: Option<u64>,
}

/// One cache entry: the slot streams are recorded into, plus the LRU
/// bookkeeping the byte cap needs.
#[derive(Debug, Default)]
struct CacheEntry {
    slot: Slot,
    /// Recency stamp (monotone per-cache counter; larger = fresher).
    stamp: u64,
    /// Charged size once recorded (see [`StreamCacheStats::bytes`]); 0
    /// while the recording is in flight.
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Entries by [`StreamKey::recording_fingerprint`].
    map: HashMap<u64, CacheEntry>,
    clock: u64,
    limit: Option<u64>,
    store: Option<StreamStore>,
    stats: StreamCacheStats,
}

/// A keyed, thread-safe cache of recorded streams, shared by every
/// experiment in a suite (or every job in an `llc-serve` daemon) so each
/// (workload, private hierarchy) pair is recorded exactly once no matter
/// how many policies and non-inclusive LLC sizes replay it — including
/// from parallel workers. Entries are keyed by
/// [`StreamKey::recording_fingerprint`].
///
/// Locking is two-level: a brief outer lock resolves the key to a
/// per-key slot, and recording happens under the slot's own lock, so two
/// experiments wanting *different* streams record concurrently while two
/// wanting the *same* stream share one recording. Errors are not cached —
/// a failed recording is retried by the next caller.
///
/// Two optional behaviours, both off by default:
///
/// * **A byte cap** ([`StreamCache::set_limit`]): the cache tracks the
///   encoded size of every resident stream, plus its annotation scan
///   (12 B per reference) once one is built, and evicts the
///   least-recently-used entries when an insert or a scan pushes the
///   total over the cap (the entry being charged is never evicted, so a
///   single oversized stream still caches). Counters are exposed via
///   [`StreamCache::stats`].
/// * **A persistent backing store** ([`StreamCache::with_store`]): the
///   in-memory cache becomes a read-through layer over an on-disk
///   [`StreamStore`] keyed by [`StreamKey::recording_fingerprint`]. A miss first
///   tries the store (a *disk hit* skips the recording simulation
///   entirely, even in a fresh process); a recording is persisted back.
///   A disk hit is decoded once into an owned [`RecordedStream`]. A
///   corrupt stored file, or one whose header holds another recording
///   fingerprint, is counted, quarantined, re-recorded and overwritten —
///   never an error for the caller.
#[derive(Debug, Clone, Default)]
pub struct StreamCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl StreamCache {
    /// Creates an empty, unbounded, memory-only cache.
    pub fn new() -> Self {
        StreamCache::default()
    }

    /// Sets (or clears) the in-memory byte cap and evicts immediately if
    /// the cache is already over the new cap.
    pub fn set_limit(&self, limit_bytes: Option<u64>) {
        let mut inner = lock_recovering(&self.inner);
        inner.limit = limit_bytes;
        Self::evict_over_limit(&mut inner, None);
    }

    /// Builds a cache backed by `store` with an in-memory cap: a
    /// read-through/write-through layer over the persistent store.
    pub fn with_store(store: StreamStore, limit_bytes: Option<u64>) -> Self {
        let cache = StreamCache::new();
        lock_recovering(&cache.inner).store = Some(store);
        cache.set_limit(limit_bytes);
        cache
    }

    /// The default in-memory byte cap for a run with `jobs` concurrent
    /// experiments: 512 MiB per job of resident streams, each charged at
    /// its encoded size plus its annotation scan (12 B per reference)
    /// once one is built — comfortably the working set of a paper-scale
    /// experiment — with a 2 GiB floor so small worker counts never
    /// thrash the suite's shared recordings.
    pub fn default_limit(jobs: usize) -> u64 {
        ((jobs.max(1) as u64) * (512 << 20)).max(2 << 30)
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> StreamCacheStats {
        let inner = lock_recovering(&self.inner);
        StreamCacheStats {
            limit: inner.limit,
            ..inner.stats
        }
    }

    /// Non-destructive availability probe for DAG planners: the encoded
    /// size of `key`'s stream if it is resident in memory or present in
    /// the attached store, `None` otherwise. Never records, loads or
    /// touches LRU state, so planning a spec cannot perturb the cache.
    pub fn probe(&self, key: &StreamKey) -> Option<u64> {
        let id = key.recording_fingerprint();
        if let Some((_, resident)) = self.filled(id) {
            return Some(resident.stream.encoded_len() as u64);
        }
        let store = lock_recovering(&self.inner).store.clone();
        store?.size_of(id)
    }

    /// `true` if `key`'s stream is resident in memory right now: whether
    /// the byte cap has evicted it (what byte-accounting tests check).
    pub fn resident(&self, key: &StreamKey) -> bool {
        self.filled(key.recording_fingerprint()).is_some()
    }

    /// Entry `id`'s slot and what it holds, if the entry is filled.
    /// Touches no LRU state.
    fn filled(&self, id: u64) -> Option<(Slot, Resident)> {
        let slot = Arc::clone(&lock_recovering(&self.inner).map.get(&id)?.slot);
        let resident = lock_recovering(&slot).clone()?;
        Some((slot, resident))
    }

    /// Returns the stream for `key`: from memory if resident, else from
    /// the attached store's `.llcs` file if present, intact and recorded
    /// under `key.config`'s recording fingerprint (see
    /// [`StreamStore::fetch`]), else by recording it via `make_trace`
    /// under `key.config` (and persisting the recording if a store is
    /// attached). Keys that differ only in a non-inclusive LLC share one
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates [`record_stream`] errors; they are not cached. Disk
    /// problems never fail the call — a corrupt stored copy falls back
    /// to re-recording and a failed persist only bumps a counter.
    pub fn get_or_record<W, F>(
        &self,
        key: StreamKey,
        make_trace: F,
    ) -> Result<Arc<RecordedStream>, RunError>
    where
        W: TraceSource,
        F: FnOnce() -> W,
    {
        let id = key.recording_fingerprint();
        let (slot, store) = {
            let mut inner = lock_recovering(&self.inner);
            inner.clock += 1;
            let clock = inner.clock;
            let entry = inner.map.entry(id).or_default();
            entry.stamp = clock;
            (Arc::clone(&entry.slot), inner.store.clone())
        };
        let mut guard = lock_recovering(&slot);
        if let Some(resident) = guard.as_ref() {
            let (stream, size) = (Arc::clone(&resident.stream), resident.bytes());
            drop(guard);
            let mut inner = lock_recovering(&self.inner);
            inner.stats.hits += 1;
            METRICS.cache_hits.inc();
            // A hit can race the byte cap: eviction may have removed the
            // map entry between slot resolution and here while this Arc
            // kept the stream alive. Re-adopt the slot, scan included,
            // so the bytes this handle pins stay accounted — otherwise
            // the next request would load a second copy of a stream
            // still resident, double-charging the cap in real memory.
            if !inner.map.contains_key(&id) {
                Self::charge(&mut inner, id, &slot, size);
                Self::evict_over_limit(&mut inner, Some(id));
            }
            return Ok(stream);
        }

        // Not in memory: try the persistent store, then record. Both
        // happen under the slot lock so concurrent requesters of the same
        // key share one load/recording.
        let recording_fp = key.config.recording_fingerprint();
        let loaded = match store
            .as_ref()
            .map_or(Ok(None), |s| s.fetch(id, recording_fp))
        {
            Ok(loaded) => loaded,
            Err(e) => {
                // Unreadable, corrupt or foreign stored copy (the load
                // moved a bad one to quarantine/): count it, re-record,
                // overwrite.
                let mut inner = lock_recovering(&self.inner);
                inner.stats.disk_errors += 1;
                METRICS.cache_disk_errors.inc();
                if let LoadError::Corrupt {
                    quarantined: true, ..
                } = e
                {
                    inner.stats.quarantined += 1;
                }
                None
            }
        };
        let from_disk = loaded.is_some();
        let stream = match loaded {
            Some(stream) => Arc::new(stream),
            None => {
                let stream = Arc::new(record_stream(&key.config, make_trace())?);
                if let Some(store) = &store {
                    if store.save(id, &stream).is_err() {
                        lock_recovering(&self.inner).stats.disk_errors += 1;
                        METRICS.cache_disk_errors.inc();
                    }
                }
                stream
            }
        };
        let resident = Resident {
            stream: Arc::clone(&stream),
            scan: Arc::default(),
        };
        *guard = Some(resident.clone());
        drop(guard);

        // Account the insert and enforce the cap (never evicting the
        // entry just inserted).
        let mut inner = lock_recovering(&self.inner);
        if from_disk {
            inner.stats.disk_hits += 1;
            METRICS.cache_disk_hits.inc();
        } else {
            inner.stats.misses += 1;
            METRICS.cache_misses.inc();
        }
        // A requester that hit the slot meanwhile may have built the
        // scan already.
        Self::charge(&mut inner, id, &slot, resident.bytes());
        Self::evict_over_limit(&mut inner, Some(id));
        Ok(stream)
    }

    /// The annotations of `window` over `stream`, the recording this
    /// cache holds for `key`, derived from the entry's annotation scan.
    /// The first request builds the scan outside the cache locks, while
    /// concurrent requesters wait for it, and charges it to the entry,
    /// which may evict others. An entry that no longer holds `stream`
    /// (evicted, or never cached) and a window of `u32::MAX` or more,
    /// which the scan's saturated distances cannot resolve, get
    /// [`compute_annotations`]: same vectors, nothing kept or charged.
    pub(crate) fn annotations(
        &self,
        key: &StreamKey,
        stream: &Arc<RecordedStream>,
        window: u64,
    ) -> Annotations {
        if window >= u64::from(u32::MAX) {
            return compute_annotations(stream, window);
        }
        let id = key.recording_fingerprint();
        let Some((slot, resident)) = self
            .filled(id)
            .filter(|(_, resident)| Arc::ptr_eq(&resident.stream, stream))
        else {
            return compute_annotations(stream, window);
        };
        let _span = spans::span("compute_annotations");
        let mut built = false;
        let scan = resident.scan.get_or_init(|| {
            built = true;
            AnnotationScan::new(stream)
        });
        // Charged once the scan is visible in the slot, so an insert or
        // re-adoption that reads the slot afterwards charges it too. An
        // entry evicted meanwhile stays evicted.
        if built {
            let mut inner = lock_recovering(&self.inner);
            if inner
                .map
                .get(&id)
                .is_some_and(|entry| Arc::ptr_eq(&entry.slot, &slot))
            {
                Self::charge(&mut inner, id, &slot, resident.bytes());
                Self::evict_over_limit(&mut inner, Some(id));
            }
        }
        scan.annotations(window)
    }

    /// Charges exactly `size` bytes for `key`'s filled `slot`, keeping
    /// the invariant `stats.bytes == Σ entry.bytes`: a re-charge adjusts
    /// by the signed difference (never drifts on shrink), and an entry
    /// evicted while its fill was in flight is re-inserted so the stream
    /// the caller's slot handle pins stays accounted. If another caller
    /// already re-created the entry around a *different* slot, that copy
    /// owns the accounting and this one is left as a transient duplicate
    /// rather than double-charging the key.
    fn charge(inner: &mut CacheInner, key: u64, slot: &Slot, size: u64) {
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.entry(key).or_insert_with(|| CacheEntry {
            slot: Arc::clone(slot),
            stamp: clock,
            bytes: 0,
        });
        if !Arc::ptr_eq(&entry.slot, slot) {
            return;
        }
        entry.stamp = clock;
        let prev = entry.bytes;
        entry.bytes = size;
        inner.stats.bytes = inner.stats.bytes - prev + size;
        METRICS.cache_bytes.add(size as i64 - prev as i64);
    }

    /// Evicts least-recently-used recorded entries until the cache fits
    /// its cap again. `keep` (the entry being charged) and in-flight
    /// recordings (`bytes == 0`) are never evicted. An evicted entry's
    /// scan goes with its slot.
    fn evict_over_limit(inner: &mut CacheInner, keep: Option<u64>) {
        let Some(limit) = inner.limit else { return };
        while inner.stats.bytes > limit {
            let victim = inner
                .map
                .iter()
                .filter(|&(&k, e)| e.bytes > 0 && Some(k) != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            // infallible: the key was just found in the map under the
            // same lock.
            let entry = inner.map.remove(&victim).expect("victim present");
            inner.stats.bytes -= entry.bytes;
            inner.stats.evictions += 1;
            METRICS.cache_bytes.add(-(entry.bytes as i64));
            METRICS.cache_evictions.inc();
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock (a recording
/// panic elsewhere must not wedge the whole cache — the poisoned slot
/// simply holds `None` and is re-recorded).
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::LlcStats;
    use llc_trace::{App, Scale};

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::tiny()
    }

    fn stream_of(app: App) -> RecordedStream {
        record_stream(&cfg(), app.workload(4, Scale::Tiny)).expect("record")
    }

    fn full_sim(kind: PolicyKind, app: App) -> LlcStats {
        crate::runner::simulate(
            &cfg(),
            &ReplayDesc::plain(kind),
            &mut || app.workload(4, Scale::Tiny),
            vec![],
        )
        .expect("simulate")
        .llc
    }

    #[test]
    fn replay_matches_full_simulation_for_every_policy_kind() {
        let c = cfg();
        let stream = stream_of(App::Bodytrack);
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Nru,
            PolicyKind::Srrip,
            PolicyKind::Drrip,
            PolicyKind::Dip,
            PolicyKind::Ship,
            PolicyKind::Opt,
        ] {
            let fast = replay_kind(&c, kind, &stream, vec![]).expect("replay");
            assert_eq!(fast.llc, full_sim(kind, App::Bodytrack), "{kind} diverged");
            assert_eq!(fast.instructions, stream.instructions);
            assert_eq!(fast.trace_accesses, stream.trace_accesses);
        }
    }

    #[test]
    fn replay_oracle_matches_full_simulation() {
        let c = cfg();
        let stream = stream_of(App::Streamcluster);
        for base in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt] {
            let desc = ReplayDesc::oracle(
                base,
                llc_policies::ProtectMode::Eviction,
                crate::runner::oracle_window(&c),
            );
            let fast = replay(&c, &desc, &stream, None, vec![]).expect("replay");
            let slow = crate::runner::simulate(
                &c,
                &desc,
                &mut || App::Streamcluster.workload(4, Scale::Tiny),
                vec![],
            )
            .expect("simulate");
            assert_eq!(fast.llc, slow.llc, "oracle({base}) diverged");
        }
    }

    #[test]
    fn replay_refuses_inclusive_and_mismatched_configs() {
        let stream = stream_of(App::Fft);
        let mut inclusive = cfg();
        inclusive.inclusion = Inclusion::Inclusive;
        assert!(matches!(
            replay_kind(&inclusive, PolicyKind::Lru, &stream, vec![]),
            Err(RunError::Sim(SimError::Config(_)))
        ));
        let mut other_l1 = cfg();
        other_l1.l1 = llc_sim::CacheConfig::from_kib(4, 2).expect("valid");
        let mut with_l2 = cfg();
        with_l2.l2 = Some(llc_sim::CacheConfig::from_kib(8, 4).expect("valid"));
        for other in [other_l1, with_l2] {
            assert!(matches!(
                replay_kind(&other, PolicyKind::Lru, &stream, vec![]),
                Err(RunError::Sim(SimError::Config(_)))
            ));
        }
    }

    #[test]
    fn one_recording_replays_exactly_at_every_non_inclusive_llc_size() {
        let stream = stream_of(App::Dedup);
        for (kib, ways) in [(64, 8), (128, 8), (128, 16)] {
            let mut c = cfg();
            c.llc = llc_sim::CacheConfig::from_kib(kib, ways).expect("valid");
            for desc in [
                ReplayDesc::plain(PolicyKind::Lru),
                ReplayDesc::plain(PolicyKind::Opt),
                ReplayDesc::oracle(
                    PolicyKind::Srrip,
                    llc_policies::ProtectMode::Eviction,
                    crate::runner::oracle_window(&c),
                ),
            ] {
                let fast = replay(&c, &desc, &stream, None, vec![]).expect("replay");
                let slow = crate::runner::simulate(
                    &c,
                    &desc,
                    &mut || App::Dedup.workload(4, Scale::Tiny),
                    vec![],
                )
                .expect("simulate");
                assert_eq!(
                    fast.llc,
                    slow.llc,
                    "{} at {kib} KiB {ways}-way",
                    desc.label()
                );
            }
        }
    }

    fn at_llc(key: StreamKey, kib: u64) -> StreamKey {
        let mut key = key;
        key.config.llc = llc_sim::CacheConfig::from_kib(kib, 8).expect("valid");
        key
    }

    #[test]
    fn two_non_inclusive_llc_sizes_share_one_recording_and_no_node() {
        use llc_dag::{annotations_fp, replay_fp};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("llc-cache-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(&dir).expect("open store");
        let cache = StreamCache::with_store(store.clone(), None);
        let recordings = AtomicUsize::new(0);
        let make = || {
            recordings.fetch_add(1, Ordering::SeqCst);
            App::Fft.workload(4, Scale::Tiny)
        };
        let (small, big) = (
            at_llc(key_for(App::Fft), 64),
            at_llc(key_for(App::Fft), 128),
        );
        let a = cache.get_or_record(small, make).expect("record");
        let b = cache.get_or_record(big, make).expect("shared");
        assert_eq!(recordings.load(Ordering::SeqCst), 1, "one record");
        assert!(Arc::ptr_eq(&a, &b), "one cache entry");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.bytes, a.encoded_len() as u64);
        assert_eq!(small.recording_fingerprint(), big.recording_fingerprint());
        assert_eq!(store.disk_stats().expect("stats").0, 1, "one .llcs");
        assert!(store.contains(small.recording_fingerprint()));
        assert!(cache.resident(&big));
        assert_eq!(cache.probe(&big), Some(a.encoded_len() as u64));

        // Replay and annotation nodes stay per LLC size.
        let (fs, fb) = (small.fingerprint(), big.fingerprint());
        assert_ne!(fs, fb);
        for desc in [
            ReplayDesc::plain(PolicyKind::Lru),
            ReplayDesc::oracle(PolicyKind::Lru, llc_policies::ProtectMode::Eviction, 4096),
        ] {
            assert_ne!(
                replay_fp(fs, desc.fingerprint()),
                replay_fp(fb, desc.fingerprint())
            );
        }
        assert_ne!(annotations_fp(fs, 4096), annotations_fp(fb, 4096));

        // An inclusive LLC shapes the stream: one recording per size.
        let inclusive = |key: StreamKey| StreamKey {
            config: HierarchyConfig {
                inclusion: Inclusion::Inclusive,
                ..key.config
            },
            ..key
        };
        let c = cache.get_or_record(inclusive(small), make).expect("record");
        let d = cache.get_or_record(inclusive(big), make).expect("record");
        assert_eq!(recordings.load(Ordering::SeqCst), 3, "one record per size");
        assert!(!Arc::ptr_eq(&c, &d));
        assert_ne!(c.fingerprint, d.fingerprint);
        assert_eq!(store.disk_stats().expect("stats").0, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_stream_under_the_full_config_fingerprint_is_quarantined_and_re_recorded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("llc-cache-old-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(&dir).expect("open store");
        let key = key_for(App::Swaptions);
        // A recording whose header holds the hierarchy's full-config
        // fingerprint, as `.llcs` files recorded before the recording
        // fingerprint did, stored under the recording's name.
        let mut old = stream_of(App::Swaptions);
        old.fingerprint = key.config.fingerprint();
        store.save(key.recording_fingerprint(), &old).expect("save");

        let recordings = AtomicUsize::new(0);
        let cache = StreamCache::with_store(store.clone(), None);
        let stream = cache
            .get_or_record(key, || {
                recordings.fetch_add(1, Ordering::SeqCst);
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("recover");
        assert_eq!(recordings.load(Ordering::SeqCst), 1, "re-recorded");
        let stats = cache.stats();
        assert_eq!(
            (stats.disk_hits, stats.disk_errors, stats.quarantined),
            (0, 1, 1)
        );
        assert_eq!(stream.fingerprint, key.config.recording_fingerprint());
        assert!(replay_kind(&key.config, PolicyKind::Lru, &stream, vec![]).is_ok());
        // The old header never replays either.
        assert!(replay_kind(&key.config, PolicyKind::Lru, &old, vec![]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_derived_annotations_equal_the_direct_recurrence() {
        let ctx = crate::ExperimentCtx::test();
        let c = ctx.main_config().expect("config");
        let lines = c.llc.lines();
        let windows = [
            0,
            1,
            lines,
            4 * lines,
            16 * lines,
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &app in &ctx.apps {
            // A cached stream's windows below `u32::MAX` derive from its
            // entry's one scan; an ad-hoc recording of the same app takes
            // the direct recurrence.
            let key = ctx.stream_key(app, &c);
            let cached = ctx.stream(app, &c).expect("stream");
            let ad_hoc = record_stream(&c, ctx.workload(app)).expect("record");
            for window in windows {
                let direct = compute_annotations(&ad_hoc, window);
                let ann = ctx.streams.annotations(&key, &cached, window);
                assert_eq!(ann.next_use, direct.next_use, "{app} w={window}");
                assert_eq!(ann.shared_soon, direct.shared_soon, "{app} w={window}");
            }
            // Every window over the cached recording shares one scan.
            let (a, b) = (
                ctx.streams.annotations(&key, &cached, 1),
                ctx.streams.annotations(&key, &cached, 4 * lines),
            );
            assert!(Arc::ptr_eq(&a.next_use, &b.next_use), "{app}: one scan");
        }
    }

    #[test]
    fn stream_cache_records_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = StreamCache::new();
        let recordings = AtomicUsize::new(0);
        let key = StreamKey {
            workload: WorkloadId::App(App::Swaptions),
            cores: 4,
            scale: Scale::Tiny,
            config: cfg(),
        };
        let a = cache
            .get_or_record(key, || {
                recordings.fetch_add(1, Ordering::SeqCst);
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("record");
        let b = cache
            .get_or_record(key, || {
                recordings.fetch_add(1, Ordering::SeqCst);
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("cached");
        assert_eq!(
            recordings.load(Ordering::SeqCst),
            1,
            "second get must hit the cache"
        );
        assert!(Arc::ptr_eq(&a, &b), "a memory hit shares the recording");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.bytes, a.encoded_len() as u64);
    }

    fn key_for(app: App) -> StreamKey {
        StreamKey {
            workload: WorkloadId::App(app),
            cores: 4,
            scale: Scale::Tiny,
            config: cfg(),
        }
    }

    #[test]
    fn recording_fingerprints_are_stable_and_distinct() {
        let key = key_for(App::Fft);
        // Pin the value: it names every stored recording.
        assert_eq!(key.recording_fingerprint(), 0x232f_0ea4_247d_2a80);
        assert_ne!(key.recording_fingerprint(), key.fingerprint());
        assert_eq!(
            key.recording_fingerprint(),
            at_llc(key, 128).recording_fingerprint()
        );
        assert_ne!(
            key.recording_fingerprint(),
            key_for(App::Dedup).recording_fingerprint()
        );
        assert_ne!(
            StreamKey {
                workload: WorkloadId::Mix("fft"),
                ..key
            }
            .recording_fingerprint(),
            key.recording_fingerprint(),
            "an app and a mix with the same name must not collide"
        );
    }

    #[test]
    fn stream_key_fingerprints_are_stable_and_distinct() {
        let key = key_for(App::Fft);
        assert_eq!(key.fingerprint(), key.fingerprint());
        // Pin the value: fingerprints name files in the persistent store,
        // so silently changing the scheme would orphan every stored
        // stream. Bump the seed constant if the scheme must change.
        assert_eq!(key.fingerprint(), 0x8641_6d06_bf56_88ce);
        assert_ne!(key.fingerprint(), key_for(App::Dedup).fingerprint());
        let mut other = key_for(App::Fft);
        other.cores = 8;
        assert_ne!(key.fingerprint(), other.fingerprint());
        let mut other = key_for(App::Fft);
        other.scale = Scale::Small;
        assert_ne!(key.fingerprint(), other.fingerprint());
        let mut other = key_for(App::Fft);
        other.config.llc = llc_sim::CacheConfig::from_kib(128, 8).expect("valid");
        assert_ne!(key.fingerprint(), other.fingerprint());
        assert_ne!(
            StreamKey {
                workload: WorkloadId::Mix("fft"),
                ..key
            }
            .fingerprint(),
            key.fingerprint(),
            "an app and a mix with the same name must not collide"
        );
    }

    /// The bytes a cached stream with its annotation scan is charged.
    fn charged(stream: &RecordedStream) -> u64 {
        stream.encoded_len() as u64 + 12 * stream.len() as u64
    }

    #[test]
    fn annotation_scans_are_charged_to_their_cache_entry() {
        let cache = StreamCache::new();
        let (fft_key, dedup_key) = (key_for(App::Fft), key_for(App::Dedup));
        let fft = cache
            .get_or_record(fft_key, || App::Fft.workload(4, Scale::Tiny))
            .expect("record");
        let window = crate::runner::oracle_window(&cfg());
        cache.annotations(&fft_key, &fft, window);
        cache.annotations(&fft_key, &fft, 2 * window);
        assert_eq!(cache.stats().bytes, charged(&fft), "one scan, charged once");

        // A cap that holds fft with its scan and dedup without one: the
        // dedup scan pushes the cache over and evicts fft, the LRU entry.
        let dedup = cache
            .get_or_record(dedup_key, || App::Dedup.workload(4, Scale::Tiny))
            .expect("record");
        cache.set_limit(Some(charged(&fft) + dedup.encoded_len() as u64));
        assert_eq!(cache.stats().evictions, 0);
        cache.annotations(&dedup_key, &dedup, window);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(!cache.resident(&fft_key));
        assert_eq!(stats.bytes, charged(&dedup));
    }

    #[test]
    fn compute_annotations_on_a_cached_stream_keeps_and_charges_nothing() {
        let cache = StreamCache::new();
        let key = key_for(App::Fft);
        let fft = cache
            .get_or_record(key, || App::Fft.workload(4, Scale::Tiny))
            .expect("record");
        let window = crate::runner::oracle_window(&cfg());
        let direct = compute_annotations(&fft, window);
        assert_eq!(cache.stats().bytes, fft.encoded_len() as u64);
        // The entry's scan is built by the cache call alone, and answers
        // the same vectors.
        let ann = cache.annotations(&key, &fft, window);
        assert!(!Arc::ptr_eq(&ann.next_use, &direct.next_use), "not kept");
        assert_eq!(ann.next_use, direct.next_use);
        assert_eq!(ann.shared_soon, direct.shared_soon);
        assert_eq!(cache.stats().bytes, charged(&fft));
    }

    #[test]
    fn annotations_of_an_evicted_entry_are_computed_directly_and_not_charged() {
        let cache = StreamCache::new();
        let (fft_key, dedup_key) = (key_for(App::Fft), key_for(App::Dedup));
        let fft = cache
            .get_or_record(fft_key, || App::Fft.workload(4, Scale::Tiny))
            .expect("record");
        let dedup = cache
            .get_or_record(dedup_key, || App::Dedup.workload(4, Scale::Tiny))
            .expect("record");
        // Room for dedup only: fft, the LRU entry, goes.
        cache.set_limit(Some(dedup.encoded_len() as u64));
        assert!(!cache.resident(&fft_key));
        let bytes = cache.stats().bytes;
        let window = crate::runner::oracle_window(&cfg());
        for w in [0, window] {
            let ann = cache.annotations(&fft_key, &fft, w);
            let direct = compute_annotations(&fft, w);
            assert_eq!(ann.next_use, direct.next_use, "w={w}");
            assert_eq!(ann.shared_soon, direct.shared_soon, "w={w}");
        }
        let a = cache.annotations(&fft_key, &fft, 1);
        let b = cache.annotations(&fft_key, &fft, 1);
        assert!(!Arc::ptr_eq(&a.next_use, &b.next_use), "no scan is kept");
        let stats = cache.stats();
        assert_eq!((stats.bytes, stats.evictions), (bytes, 1));
        assert!(!cache.resident(&fft_key));
    }

    #[test]
    fn byte_cap_evicts_lru_and_counts() {
        let apps = [App::Swaptions, App::Bodytrack, App::Dedup, App::Fft];
        let unbounded = StreamCache::new();
        let mut sizes = Vec::new();
        for &app in &apps {
            let s = unbounded
                .get_or_record(key_for(app), || app.workload(4, Scale::Tiny))
                .expect("record");
            sizes.push(s.encoded_len() as u64);
        }
        assert_eq!(unbounded.stats().bytes, sizes.iter().sum::<u64>());
        assert_eq!(unbounded.stats().evictions, 0);

        // Cap at exactly the two largest-so-far entries' budget: holding
        // all four is impossible, so older entries must be evicted.
        let limit = sizes[2] + sizes[3];
        let bounded = StreamCache::new();
        bounded.set_limit(Some(limit));
        for &app in &apps {
            bounded
                .get_or_record(key_for(app), || app.workload(4, Scale::Tiny))
                .expect("record");
        }
        let stats = bounded.stats();
        assert_eq!(stats.limit, Some(limit));
        assert!(stats.bytes <= limit, "cache over its cap: {stats:?}");
        assert!(stats.evictions > 0, "expected evictions: {stats:?}");
        assert_eq!(stats.misses as usize, apps.len());

        // A re-request of an evicted stream is a miss that re-records.
        let before = bounded.stats().misses;
        bounded
            .get_or_record(key_for(App::Swaptions), || {
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("re-record");
        assert_eq!(bounded.stats().misses, before + 1);
    }

    #[test]
    fn hits_touch_lru_order() {
        let apps = [App::Swaptions, App::Bodytrack, App::Dedup];
        let cache = StreamCache::new();
        let mut sizes = Vec::new();
        for &app in &apps {
            let s = cache
                .get_or_record(key_for(app), || app.workload(4, Scale::Tiny))
                .expect("record");
            sizes.push(s.encoded_len() as u64);
        }
        // Touch the oldest entry, then shrink the cap so exactly one
        // entry must go: the victim must be Bodytrack (now the LRU), not
        // the freshly touched Swaptions.
        cache
            .get_or_record(key_for(App::Swaptions), || {
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("hit");
        assert_eq!(cache.stats().hits, 1);
        cache.set_limit(Some(sizes.iter().sum::<u64>() - 1));
        assert_eq!(cache.stats().evictions, 1);
        let miss_free = cache.stats().misses;
        cache
            .get_or_record(key_for(App::Swaptions), || {
                App::Swaptions.workload(4, Scale::Tiny)
            })
            .expect("still resident");
        cache
            .get_or_record(key_for(App::Dedup), || App::Dedup.workload(4, Scale::Tiny))
            .expect("still resident");
        assert_eq!(
            cache.stats().misses,
            miss_free,
            "touched entries must have survived"
        );
    }

    #[test]
    fn store_backed_cache_reads_through_and_recovers_from_corruption() {
        use llc_trace::StreamStore;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("llc-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(&dir).expect("open store");
        let key = key_for(App::Bodytrack);
        let recordings = AtomicUsize::new(0);
        let make = || {
            recordings.fetch_add(1, Ordering::SeqCst);
            App::Bodytrack.workload(4, Scale::Tiny)
        };

        // First process lifetime: records once, persists.
        let first = StreamCache::with_store(store.clone(), None);
        let a = first.get_or_record(key, make).expect("record");
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        assert!(store.contains(key.recording_fingerprint()));
        assert_eq!(first.stats().misses, 1);

        // "Restart": a fresh cache over the same directory must serve the
        // stream from disk without simulating.
        let second = StreamCache::with_store(store.clone(), None);
        let b = second.get_or_record(key, make).expect("disk hit");
        assert_eq!(
            recordings.load(Ordering::SeqCst),
            1,
            "disk hit must not re-record"
        );
        assert_eq!(second.stats().disk_hits, 1);
        assert_eq!(second.stats().misses, 0);
        assert_eq!(*a, *b, "the disk hit decodes to the recording");

        // Corrupt the stored copy: the next fresh cache falls back to
        // re-recording (typed error internally, never surfaced) and
        // overwrites the bad file.
        let path = store.path_for(key.recording_fingerprint());
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        let third = StreamCache::with_store(store.clone(), None);
        let c = third.get_or_record(key, make).expect("recover");
        assert_eq!(
            recordings.load(Ordering::SeqCst),
            2,
            "corruption must re-record"
        );
        assert_eq!(third.stats().disk_errors, 1);
        assert_eq!(
            third.stats().quarantined,
            1,
            "corrupt copy is quarantined, not deleted"
        );
        assert!(
            dir.join(llc_trace::QUARANTINE_DIR)
                .join(format!("{:016x}.llcs", key.recording_fingerprint()))
                .exists(),
            "quarantined evidence file exists"
        );
        assert_eq!(*a, *c);
        let healed = StreamCache::with_store(store.clone(), None);
        healed.get_or_record(key, make).expect("healed");
        assert_eq!(
            recordings.load(Ordering::SeqCst),
            2,
            "overwritten copy must load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_stream_of_another_hierarchy_is_quarantined_and_re_recorded() {
        use llc_trace::StreamStore;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("llc-cache-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(&dir).expect("open store");
        let key = key_for(App::Dedup);
        let recordings = AtomicUsize::new(0);
        let make = || {
            recordings.fetch_add(1, Ordering::SeqCst);
            App::Dedup.workload(4, Scale::Tiny)
        };
        StreamCache::with_store(store.clone(), None)
            .get_or_record(key, make)
            .expect("record");

        // One flipped bit in the header's recording fingerprint (bytes
        // 40..48): the file is still well formed, but answers for another
        // hierarchy than its key names.
        let path = store.path_for(key.recording_fingerprint());
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[40] ^= 1;
        std::fs::write(&path, &bytes).expect("flip");

        let fresh = StreamCache::with_store(store.clone(), None);
        let stream = fresh.get_or_record(key, make).expect("recover");
        assert_eq!(recordings.load(Ordering::SeqCst), 2, "one re-recording");
        let stats = fresh.stats();
        assert_eq!((stats.disk_hits, stats.disk_errors), (0, 1));
        assert_eq!(stats.quarantined, 1, "the foreign copy is quarantined");
        assert!(replay_kind(&key.config, PolicyKind::Lru, &stream, vec![]).is_ok());
        // The overwritten copy now serves the next process from disk.
        let healed = StreamCache::with_store(store, None);
        healed.get_or_record(key, make).expect("healed");
        assert_eq!(healed.stats().disk_hits, 1);
        assert_eq!(recordings.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_stream_round_trips_through_llcs_and_still_replays() {
        let c = cfg();
        let stream = stream_of(App::Bodytrack);
        let bytes = stream.to_vec().expect("encode");
        let back = RecordedStream::from_slice(&bytes).expect("decode");
        assert_eq!(back, stream);
        let a = replay_kind(&c, PolicyKind::Ship, &stream, vec![]).expect("replay");
        let b = replay_kind(&c, PolicyKind::Ship, &back, vec![]).expect("replay decoded");
        assert_eq!(a.llc, b.llc);
    }
}
