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
//! [`Llc`] with it, producing **bit-identical** [`LlcStats`] to a full
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

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

use fxhash::FxHashMap;
use llc_dag::{ReplayDesc, ReplayWrap};
use llc_policies::{mono, with_policy, OracleWrap, PolicyKind, ReactiveWrap};
use llc_predictors::{build_predictor, PredictorWrap};
use llc_sim::{
    AuxProvider, BlockAddr, Cmp, ConfigError, CoreId, HierarchyConfig, Inclusion, Llc, LlcObserver,
    LlcStats, MemAccess, MultiObserver, NullObserver, PrivateCacheStats, RecordCmp,
    ReplacementPolicy, SimError, StateScope,
};
use llc_telemetry::metrics::{global, Counter, Gauge};
use llc_telemetry::spans;
use llc_trace::stream::OwnedAccessIter;
use llc_trace::view::ViewAccessIter;
use llc_trace::{
    AccessRecord, App, RecordedStream, Scale, ShardIndex, ShardIndexSlot, StreamAccess,
    StreamStore, StreamView, TraceSource, UpgradeEvent,
};

use crate::budget;
use crate::error::RunError;
use crate::runner::{CombinedProvider, NextUseProvider, OracleProvider, RunResult, StreamRecorder};
use crate::suite::pool::scoped_workers;

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
    cache_quarantined: Arc<Counter>,
    cache_bytes: Arc<Gauge>,
    view_loads: Arc<Counter>,
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
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
    cache_quarantined: global().counter_with(
        "llc_store_quarantined_total",
        "Corrupt store entries moved to quarantine/ instead of being deleted",
        &[("store", "streams")],
    ),
    cache_bytes: global().gauge(
        "llc_stream_cache_bytes",
        "Encoded stream bytes currently held in memory across all caches",
    ),
    view_loads: global().counter(
        "llc_stream_view_loads_total",
        "Disk hits loaded as zero-copy stream views (no per-record decode)",
    ),
    // Shard indexes are memory-resident DAG nodes; their hit/miss
    // series share the llc_dag_* names so one scrape covers the graph.
    index_hits: global().counter_with(
        "llc_dag_node_hits_total",
        "DAG nodes resolved from a cached artifact, by node kind",
        &[("kind", "index")],
    ),
    index_misses: global().counter_with(
        "llc_dag_node_misses_total",
        "DAG nodes that had to be computed, by node kind",
        &[("kind", "index")],
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
        // Inclusive (approximation, see `compute_shared_soon`): the LLC's
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
        fingerprint: config.fingerprint(),
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

fn check_replayable<S: StreamAccess>(config: &HierarchyConfig, stream: &S) -> Result<(), RunError> {
    config.validate().map_err(SimError::from)?;
    if config.inclusion == Inclusion::Inclusive {
        return Err(ConfigError::new(
            "stream replay requires a non-inclusive hierarchy (inclusive back-invalidations \
             make the LLC reference stream policy-dependent); run the full simulation instead",
        )
        .into());
    }
    if stream.fingerprint() != config.fingerprint() {
        return Err(ConfigError::new(format!(
            "recorded stream fingerprint {:#x} does not match hierarchy fingerprint {:#x}",
            stream.fingerprint(),
            config.fingerprint()
        ))
        .into());
    }
    Ok(())
}

/// How [`replay`] spreads an observer-free replay of a per-set-state
/// policy ([`StateScope::PerSet`]) over worker threads. The choice only
/// changes wall-clock time: sharded replay is bit-identical to
/// sequential replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Borrow whatever spare workers a suite or daemon has donated (see
    /// [`crate::budget`]) and run `borrowed + 1` set-range shards;
    /// processes that never donate replay sequentially.
    Auto,
    /// Split the stream into (at most) this many set-range shards,
    /// ignoring the donation pool. `Shards(1)` is the sequential path.
    Shards(usize),
}

/// Replays the policy `desc` names over a recorded stream (owned
/// [`RecordedStream`], zero-copy [`StreamView`] or cache-handle
/// [`CachedStream`] — anything [`StreamAccess`]): the one entry point
/// for every base policy, wrap and execution strategy. Only the LLC is
/// simulated; the result's L1/L2 counters and instruction totals come
/// from the recording. For any non-inclusive configuration the returned
/// [`LlcStats`] are bit-identical to a full-hierarchy
/// [`simulate_on`](crate::simulate_on) of the same policy over the same
/// workload, whichever stream representation and [`Exec`] drive it.
///
/// * `ann` supplies the descriptor's annotation vectors (see
///   [`ReplayDesc::annotation_window`]) when the caller already holds
///   them — the DAG memo layer loads them from its store. `None`
///   derives them from `stream` with one fused scan; descriptors that
///   need no annotations ignore the argument.
/// * Non-empty `observers` replay sequentially, fed in stream order.
///   Without observers a per-set-state policy runs set-sharded when
///   `exec` yields more than one shard and the stream is indexable
///   (positions fit `u32`); global-state policies — DIP/DRRIP (PSEL),
///   SHiP (SHCT), reactive and predictor wraps — always run
///   sequentially.
///
/// The policy is built once per shard straight from its monomorphized
/// constructor, so every inner loop is specialized to the concrete
/// policy and observer types.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the configuration is invalid, inclusive
/// (see the module docs), or does not match the stream's fingerprint.
pub fn replay<S: StreamAccess + Sync>(
    config: &HierarchyConfig,
    desc: &ReplayDesc,
    stream: &S,
    ann: Option<&Annotations>,
    exec: Exec,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    let computed;
    let ann = match (desc.annotation_window(), ann) {
        (None, _) => None,
        (Some(_), Some(ann)) => Some(ann),
        (Some(window), None) => {
            computed = compute_annotations(stream, window);
            Some(&computed)
        }
    };
    let make_aux = || ann.map(|ann| aux_provider(desc, ann));
    let sets = config.llc.sets() as usize;
    let ways = config.llc.ways;
    with_policy!(desc.kind, |ctor| match desc.wrap {
        ReplayWrap::Plain => execute(
            config,
            &|| ctor(sets, ways),
            &make_aux,
            stream,
            exec,
            observers,
        ),
        ReplayWrap::Oracle { mode, .. } => execute(
            config,
            &|| OracleWrap::with_mode(ctor(sets, ways), sets, ways, mode),
            &make_aux,
            stream,
            exec,
            observers,
        ),
        ReplayWrap::Reactive => execute(
            config,
            &|| ReactiveWrap::new(ctor(sets, ways)),
            &make_aux,
            stream,
            exec,
            observers,
        ),
        ReplayWrap::Predictor(predictor) => execute(
            config,
            &|| PredictorWrap::new(ctor(sets, ways), build_predictor(predictor), sets, ways),
            &make_aux,
            stream,
            exec,
            observers,
        ),
    })
}

/// Replays a bare `kind` with [`Exec::Auto`]: shorthand for [`replay`]
/// of [`ReplayDesc::plain`].
///
/// # Errors
///
/// Same conditions as [`replay`].
pub fn replay_kind<S: StreamAccess + Sync>(
    config: &HierarchyConfig,
    kind: PolicyKind,
    stream: &S,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError> {
    replay(
        config,
        &ReplayDesc::plain(kind),
        stream,
        None,
        Exec::Auto,
        observers,
    )
}

/// The aux provider feeding `desc`'s annotations to its policy: the
/// oracle wrap reads the shared-soon answers (plus next-use chains
/// around OPT); every other annotated descriptor is OPT-based and reads
/// the next-use chains.
pub(crate) fn aux_provider(desc: &ReplayDesc, ann: &Annotations) -> Box<dyn AuxProvider> {
    match desc.wrap {
        ReplayWrap::Oracle { .. } if desc.kind == PolicyKind::Opt => Box::new(
            CombinedProvider::shared(Arc::clone(&ann.next_use), Arc::clone(&ann.shared_soon)),
        ),
        ReplayWrap::Oracle { .. } => Box::new(OracleProvider::shared(Arc::clone(&ann.shared_soon))),
        _ => Box::new(NextUseProvider::shared(Arc::clone(&ann.next_use))),
    }
}

/// The execution decision [`replay`] makes for every descriptor, over
/// the concrete policy type `P`.
fn execute<P, FP, FA, S>(
    config: &HierarchyConfig,
    make_policy: &FP,
    make_aux: &FA,
    stream: &S,
    exec: Exec,
    observers: Vec<&mut dyn LlcObserver>,
) -> Result<RunResult, RunError>
where
    P: ReplacementPolicy,
    FP: Fn() -> P + Sync,
    FA: Fn() -> Option<Box<dyn AuxProvider>> + Sync,
    S: StreamAccess + Sync,
{
    if !observers.is_empty() {
        return replay_on(
            config,
            make_policy(),
            make_aux(),
            stream,
            &mut MultiObserver::new(observers),
        );
    }
    let policy = make_policy();
    // Scope before budget: a global-state policy never takes donated
    // workers away from a replay that could use them.
    if policy.state_scope() == StateScope::PerSet {
        let borrowed;
        let shards = match exec {
            Exec::Shards(n) => n,
            Exec::Auto => {
                borrowed = budget::borrow(MAX_DONATED_WORKERS);
                borrowed.count() + 1
            }
        };
        if shards > 1 {
            if let Some(index) = shard_index_for(stream, config.llc.sets(), shards) {
                return replay_sharded_on(config, make_policy, make_aux, stream, &index);
            }
        }
    }
    replay_on(config, policy, make_aux(), stream, &mut NullObserver)
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
pub fn replay_on<P, O, S>(
    config: &HierarchyConfig,
    policy: P,
    aux: Option<Box<dyn AuxProvider>>,
    stream: &S,
    obs: &mut O,
) -> Result<RunResult, RunError>
where
    P: ReplacementPolicy,
    O: LlcObserver + ?Sized,
    S: StreamAccess,
{
    check_replayable(config, stream)?;
    let mut llc = Llc::new(config.llc, policy);
    let _span = spans::span_with(|| format!("replay {}", llc.policy().name()));
    if let Some(aux) = aux {
        llc.set_aux_provider(aux);
    }
    let upgrades = stream.upgrades();
    let mut up = 0usize;
    // Next upgrade timestamp, hoisted so the common no-upgrade-due case
    // is one register compare per access instead of a bounds check plus
    // a load from the upgrade list.
    let mut next_at = upgrades.first().map_or(u64::MAX, |u| u.at);
    // The stream's own access iterator: lockstep plane walks for an
    // owned stream, in-place record decode for a view — either way the
    // inner loop is free of bounds checks and per-record virtual calls.
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
        l1: stream.l1_stats(),
        l2: stream.l2_stats(),
        instructions: stream.instructions(),
        trace_accesses: stream.trace_accesses(),
    })
}

/// The largest number of spare workers one replay will borrow from the
/// donation pool — a sanity bound far above any realistic core count,
/// not a tuning knob (the pool itself reflects the `--jobs` grant).
const MAX_DONATED_WORKERS: usize = 63;

/// Process-global override of the sharded-replay worker clamp; 0 means
/// "use `available_parallelism`" (the default).
static HOST_THREAD_OVERRIDE: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// Overrides the number of host threads sharded replay clamps its worker
/// pool to; `None` restores the `available_parallelism` default.
///
/// A measurement knob, not a tuning knob: `benches/shard.rs` uses it to
/// record both the 1-thread floor (`Some(1)` — every shard runs inline,
/// which is what the ≥ 0.95× sequential gate measures) and the
/// multi-thread speedup on whatever host CI lands on. The override is
/// process-global and racy-by-design (a relaxed atomic): flipping it
/// mid-replay only changes how many workers the *next* replay spawns,
/// never the replayed bits.
pub fn set_host_thread_override(threads: Option<usize>) {
    HOST_THREAD_OVERRIDE.store(threads.unwrap_or(0), std::sync::atomic::Ordering::Relaxed);
}

/// Replays a stream split into contiguous set-range shards, one LLC (and
/// one policy instance) per shard, fanned out over
/// scoped worker threads — the parallel twin of [`replay_on`].
///
/// Each shard's LLC covers only its set range but keeps the full
/// geometry for indexing, and is driven with the *global* stream index
/// as its logical clock ([`Llc::seek_time`]), so for any policy whose
/// state is per-set ([`StateScope::PerSet`]) the merged result is
/// **bit-identical** to the sequential replay: sets never interact, every
/// timestamp matches, and [`LlcStats`] merging is pure `u64` addition in
/// fixed shard order. The caller is responsible for the scope check —
/// [`replay`] falls back to sequential replay for [`StateScope::Global`]
/// policies.
///
/// Generic over the policy factory's return type, so [`replay`]
/// constructs one *concrete* policy per shard — no `Box<dyn>`
/// allocation and no virtual dispatch inside any shard's loop. The loop
/// itself walks the shard's own gathered access planes
/// ([`llc_trace::StreamShard`]) front to back: sequential reads of
/// shard-compact arrays instead of strided gathers through the full
/// stream, which is what makes k shards on one host thread cost ~the
/// sequential replay instead of k× its memory traffic.
fn replay_sharded_on<P, S, FP, FA>(
    config: &HierarchyConfig,
    make_policy: &FP,
    make_aux: &FA,
    stream: &S,
    index: &ShardIndex,
) -> Result<RunResult, RunError>
where
    P: ReplacementPolicy,
    S: StreamAccess + Sync,
    FP: Fn() -> P + Sync,
    FA: Fn() -> Option<Box<dyn AuxProvider>> + Sync,
{
    check_replayable(config, stream)?;
    if index.sets() != config.llc.sets() {
        return Err(ConfigError::new(format!(
            "shard index built for {} sets cannot drive an LLC with {} sets",
            index.sets(),
            config.llc.sets()
        ))
        .into());
    }
    let shards = index.shards();
    let _span = spans::span_with(|| format!("replay_sharded x{}", shards.len()));
    let slots: Vec<Mutex<Option<(String, LlcStats)>>> =
        shards.iter().map(|_| Mutex::new(None)).collect();
    let run_shard = |w: usize| {
        let shard = &shards[w];
        let _span = spans::span_with(|| format!("shard {w}"));
        let mut llc = Llc::new_range(config.llc, make_policy(), shard.set_base, shard.set_len);
        if let Some(aux) = make_aux() {
            llc.set_aux_provider(aux);
        }
        let upgrades = stream.upgrades();
        let mut up = 0usize;
        let mut next_at = shard
            .upgrades
            .first()
            .map_or(u64::MAX, |&u| upgrades[u as usize].at);
        // Zipped like the sequential inner loop: one bounds check for the
        // whole walk instead of four per access.
        let planes = shard
            .accesses
            .iter()
            .zip(&shard.blocks)
            .zip(&shard.pcs)
            .zip(&shard.cores)
            .zip(&shard.kinds);
        for ((((&pos, &block), &pc), &core), &kind) in planes {
            let i = pos as u64;
            // Upgrades recorded at LLC time `i` happened before access
            // `i`; only this shard's upgrades touch this shard's lines.
            if i >= next_at {
                while up < shard.upgrades.len() {
                    let u = &upgrades[shard.upgrades[up] as usize];
                    if u.at > i {
                        break;
                    }
                    llc.note_upgrade(u.block, u.core);
                    up += 1;
                }
                next_at = shard
                    .upgrades
                    .get(up)
                    .map_or(u64::MAX, |&u| upgrades[u as usize].at);
            }
            // The shard's logical clock is the *global* stream index, so
            // every timestamp the policy sees (LRU order, OPT next-use
            // chains) matches the sequential run exactly.
            llc.seek_time(i);
            llc.access(block, pc, core, kind, &mut NullObserver);
        }
        while up < shard.upgrades.len() {
            let u = &upgrades[shard.upgrades[up] as usize];
            llc.note_upgrade(u.block, u.core);
            up += 1;
        }
        llc.seek_time(stream.len() as u64);
        llc.flush(&mut NullObserver);
        *lock_recovering(&slots[w]) = Some((llc.policy().name(), llc.stats()));
    };
    // More shards than hardware threads just timeslice against each
    // other (context switches plus cache churn between shard working
    // sets), so clamp the thread count and let workers claim shards from
    // a counter; shard results land in fixed slots, so the merge order —
    // and the merged bits — don't depend on who ran what. One worker
    // means no spawn at all: the shards run inline back to back, which
    // is what makes k-shard replay on a single-thread host cost ~the
    // sequential replay.
    let host_threads = match HOST_THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    let workers = shards.len().min(host_threads);
    if workers <= 1 {
        for w in 0..shards.len() {
            run_shard(w);
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        scoped_workers(workers, |_| loop {
            let w = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if w >= shards.len() {
                break;
            }
            run_shard(w);
        });
    }
    let _merge_span = spans::span("merge shards");
    let mut llc_stats = LlcStats::default();
    let mut policy = String::new();
    for slot in slots {
        let (name, stats) = slot
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            // infallible: `scoped_workers` re-raises worker panics, so
            // reaching this line means every worker filled its slot.
            .expect("every shard slot is filled");
        llc_stats += stats;
        policy = name;
    }
    Ok(RunResult {
        policy,
        llc: llc_stats,
        l1: stream.l1_stats(),
        l2: stream.l2_stats(),
        instructions: stream.instructions(),
        trace_accesses: stream.trace_accesses(),
    })
}

/// Process-global registry associating streams handed out by a
/// [`StreamCache`] with their lazily built [`ShardIndex`]es, so every
/// policy replaying the same recording shares one index build per shard
/// count. Streams are matched by allocation identity (the `Arc` the
/// cache holds), which is stable for as long as the stream is alive;
/// entries whose stream has been dropped (e.g. evicted by the cache's
/// byte cap) are pruned on the next registration, which bounds the
/// registry — and the indices it keeps alive — by the cache contents.
mod shard_registry {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, Weak};

    use llc_trace::{RecordedStream, ShardIndexSlot};

    use super::lock_recovering;

    /// Per-stream cache of shard indices, keyed by (set count, shard
    /// count) — the same map type a view-backed stream carries in-struct
    /// (see [`llc_trace::StreamAccess::shard_slot`]).
    pub(super) type IndexMap = ShardIndexSlot;

    static REGISTRY: Mutex<Vec<(Weak<RecordedStream>, Arc<IndexMap>)>> = Mutex::new(Vec::new());

    /// Registers a cached stream (idempotent), pruning dead entries.
    pub(super) fn register(stream: &Arc<RecordedStream>) {
        let mut reg = lock_recovering(&REGISTRY);
        reg.retain(|(weak, _)| weak.strong_count() > 0);
        if reg
            .iter()
            .any(|(weak, _)| weak.upgrade().is_some_and(|s| Arc::ptr_eq(&s, stream)))
        {
            return;
        }
        reg.push((Arc::downgrade(stream), Arc::new(Mutex::new(HashMap::new()))));
    }

    /// The index map of the registered stream whose allocation sits at
    /// `addr` (see [`llc_trace::StreamAccess::registry_addr`]), or
    /// `None` for ad-hoc streams that never went through a cache. The
    /// `Weak` upgrade makes the raw-address comparison safe: a live
    /// registered allocation cannot share an address with anything else.
    pub(super) fn lookup(addr: usize) -> Option<Arc<IndexMap>> {
        let reg = lock_recovering(&REGISTRY);
        reg.iter()
            .find(|(weak, _)| {
                weak.upgrade()
                    .is_some_and(|s| Arc::as_ptr(&s) as *const u8 as usize == addr)
            })
            .map(|(_, map)| Arc::clone(map))
    }
}

/// Registers `stream` with the process-global shard-index registry, so
/// subsequent sharded replays of the *same* [`Arc`] share one
/// [`ShardIndex`] build per shard count instead of re-indexing the
/// stream on every call. Streams handed out by a [`StreamCache`] are
/// registered automatically; call this for ad-hoc streams (benchmarks,
/// tests, external drivers) that replay more than once. Idempotent;
/// entries die with their stream's last `Arc`.
pub fn register_stream(stream: &Arc<RecordedStream>) {
    shard_registry::register(stream);
}

/// Builds (or fetches) the shard index splitting `stream` over `shards`
/// contiguous set ranges. View-backed streams carry their own index
/// slot; owned streams handed out by a [`StreamCache`] cache their
/// indices in the allocation-identity registry — either way concurrent
/// replays of the same recording share one build, and ad-hoc streams
/// build privately (see [`register_stream`]). Returns `None` for streams
/// too large for `u32` index positions (the caller replays
/// sequentially).
fn shard_index_for<S: StreamAccess>(
    stream: &S,
    sets: u64,
    shards: usize,
) -> Option<Arc<ShardIndex>> {
    let fetch_or_build = |map: &mut HashMap<(u64, usize), Arc<ShardIndex>>| {
        if let Some(index) = map.get(&(sets, shards)) {
            METRICS.index_hits.inc();
            return Some(Arc::clone(index));
        }
        METRICS.index_misses.inc();
        let index = Arc::new(ShardIndex::build(stream, sets, shards)?);
        map.insert((sets, shards), Arc::clone(&index));
        Some(index)
    };
    if let Some(slot) = stream.shard_slot() {
        return fetch_or_build(&mut lock_recovering(slot));
    }
    match shard_registry::lookup(stream.registry_addr()) {
        Some(map) => fetch_or_build(&mut lock_recovering(&map)),
        None => {
            METRICS.index_misses.inc();
            ShardIndex::build(stream, sets, shards).map(Arc::new)
        }
    }
}

/// Both offline annotation vectors, produced by one fused backward scan
/// over a recorded stream (see [`compute_annotations`]).
///
/// The vectors sit behind [`Arc`] so every shard of a set-sharded replay
/// shares one copy.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// For each access, the stream index of the next access to the same
    /// block (`u64::MAX` = never used again). Feeds Belady's OPT.
    pub next_use: Arc<Vec<u64>>,
    /// For each access, whether a *different core* touches the block
    /// within the oracle retention window. Feeds the oracle wrapper.
    pub shared_soon: Arc<Vec<bool>>,
}

/// Computes `next_use` and `shared_soon` in **one** backward scan over
/// `stream` — the fused form of the runner's historical
/// `compute_next_use` + `compute_shared_soon` pre-passes, which each ran
/// their own full simulation plus scan.
///
/// The fusion is exact because both annotations are functions of the same
/// per-block recurrence: walking the stream backwards, keep for each
/// block its nearest future access (`n1`, issued by core `c1`) and the
/// nearest future access by a core other than `c1` (`n2`). Then
/// `next_use[i] = n1` and `shared_soon[i]` asks whether the nearest
/// future *differing-core* access falls within `window`.
pub fn compute_annotations<S: StreamAccess>(stream: &S, window: u64) -> Annotations {
    let _span = spans::span("compute_annotations");
    let n = stream.len();
    let mut next_use = vec![u64::MAX; n];
    let mut shared_soon = vec![false; n];
    struct Next {
        n1: u64,
        c1: CoreId,
        n2: u64,
    }
    let mut next: FxHashMap<BlockAddr, Next> = FxHashMap::default();
    // Backward walk over the stream's own iterator (the trait requires
    // `DoubleEnded + ExactSize` exactly for this pass).
    for (i, a) in stream.accesses().enumerate().rev() {
        let block = a.block;
        let core = a.core;
        if let Some(e) = next.get(&block) {
            next_use[i] = e.n1;
            let next_diff = if e.c1 != core { e.n1 } else { e.n2 };
            shared_soon[i] = next_diff != u64::MAX && next_diff - i as u64 <= window;
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
    Annotations {
        next_use: Arc::new(next_use),
        shared_soon: Arc::new(shared_soon),
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

/// FNV-1a over a byte string; folded into the splitmix chain of
/// [`StreamKey::fingerprint`] so workload names contribute stably.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cache key: workload identity × thread count × scale × hierarchy.
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
    /// A stable 64-bit fingerprint of the key, safe to persist: it
    /// content-addresses `.llcs` recordings in an on-disk
    /// [`StreamStore`], so — unlike `Hash` — it is defined by this crate
    /// (a splitmix64 chain over the workload name, thread count, scale
    /// and the hierarchy's own stable fingerprint) and does not change
    /// across Rust releases, platforms or process restarts.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x4c4c_4353_4b45_5931; // "LLCSKEY1"
        let mut fold = |v: u64| h = llc_sim::splitmix64(h ^ v);
        fold(match self.workload {
            WorkloadId::App(_) => 1,
            WorkloadId::Mix(_) => 2,
        });
        fold(fnv1a64(self.workload.label().as_bytes()));
        fold(self.cores as u64);
        fold(fnv1a64(self.scale.to_string().as_bytes()));
        fold(self.config.fingerprint());
        h
    }
}

/// A replayable handle from [`StreamCache::get_or_record`]: either a
/// fully decoded in-memory recording or a zero-copy [`StreamView`] over
/// one `.llcs` arena loaded from the attached store. Both replay
/// bit-identically — the variants only decide how the record bytes are
/// held — and the whole dispatch cost is one predicted branch per record
/// inside [`CachedAccessIter`]. Callers that want the branch gone
/// entirely (the daemon's memo path) match once and hand the inner
/// stream to the monomorphized drivers directly.
#[derive(Debug, Clone)]
pub enum CachedStream {
    /// A stream recorded in this process: plane vectors, registered in
    /// the process-wide shard-index registry.
    Owned(Arc<RecordedStream>),
    /// A disk hit held as a validated view over the loaded arena: one
    /// allocation, no per-record decode, shard-index slot carried in the
    /// view itself.
    View(Arc<StreamView>),
}

impl CachedStream {
    /// Number of LLC accesses (inherent mirror of [`StreamAccess::len`]
    /// so call sites need no trait import).
    #[allow(clippy::len_without_is_empty)] // is_empty is right below
    pub fn len(&self) -> usize {
        match self {
            CachedStream::Owned(s) => StreamAccess::len(&**s),
            CachedStream::View(v) => StreamAccess::len(&**v),
        }
    }

    /// `true` if the stream holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decoded plane-vector recording behind this handle, if it is
    /// one (recorded in this process); `None` for zero-copy disk views.
    pub fn as_owned(&self) -> Option<&Arc<RecordedStream>> {
        match self {
            CachedStream::Owned(s) => Some(s),
            CachedStream::View(_) => None,
        }
    }

    /// The exact `.llcs` encoding size — for a view, the bytes of the
    /// shared arena, charged against the cache cap exactly once.
    pub fn encoded_len(&self) -> usize {
        match self {
            CachedStream::Owned(s) => StreamAccess::encoded_len(&**s),
            CachedStream::View(v) => StreamAccess::encoded_len(&**v),
        }
    }
}

/// [`CachedStream`]'s access iterator: the owned-plane or view-decode
/// iterator behind one enum tag.
#[derive(Debug)]
pub enum CachedAccessIter<'a> {
    /// Iterating decoded plane vectors.
    Owned(OwnedAccessIter<'a>),
    /// Decoding records out of a view's arena on the fly.
    View(ViewAccessIter<'a>),
}

impl Iterator for CachedAccessIter<'_> {
    type Item = AccessRecord;

    fn next(&mut self) -> Option<AccessRecord> {
        match self {
            CachedAccessIter::Owned(it) => it.next(),
            CachedAccessIter::View(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            CachedAccessIter::Owned(it) => it.size_hint(),
            CachedAccessIter::View(it) => it.size_hint(),
        }
    }
}

impl DoubleEndedIterator for CachedAccessIter<'_> {
    fn next_back(&mut self) -> Option<AccessRecord> {
        match self {
            CachedAccessIter::Owned(it) => it.next_back(),
            CachedAccessIter::View(it) => it.next_back(),
        }
    }
}

impl ExactSizeIterator for CachedAccessIter<'_> {}

impl StreamAccess for CachedStream {
    type Iter<'a> = CachedAccessIter<'a>;

    fn len(&self) -> usize {
        CachedStream::len(self)
    }

    fn fingerprint(&self) -> u64 {
        match self {
            CachedStream::Owned(s) => s.fingerprint(),
            CachedStream::View(v) => StreamAccess::fingerprint(&**v),
        }
    }

    fn accesses(&self) -> CachedAccessIter<'_> {
        match self {
            CachedStream::Owned(s) => CachedAccessIter::Owned(s.accesses()),
            CachedStream::View(v) => CachedAccessIter::View(v.accesses()),
        }
    }

    fn upgrades(&self) -> &[UpgradeEvent] {
        match self {
            CachedStream::Owned(s) => StreamAccess::upgrades(&**s),
            CachedStream::View(v) => StreamAccess::upgrades(&**v),
        }
    }

    fn instructions(&self) -> u64 {
        match self {
            CachedStream::Owned(s) => StreamAccess::instructions(&**s),
            CachedStream::View(v) => StreamAccess::instructions(&**v),
        }
    }

    fn trace_accesses(&self) -> u64 {
        match self {
            CachedStream::Owned(s) => StreamAccess::trace_accesses(&**s),
            CachedStream::View(v) => StreamAccess::trace_accesses(&**v),
        }
    }

    fn l1_stats(&self) -> PrivateCacheStats {
        match self {
            CachedStream::Owned(s) => StreamAccess::l1_stats(&**s),
            CachedStream::View(v) => StreamAccess::l1_stats(&**v),
        }
    }

    fn l2_stats(&self) -> PrivateCacheStats {
        match self {
            CachedStream::Owned(s) => StreamAccess::l2_stats(&**s),
            CachedStream::View(v) => StreamAccess::l2_stats(&**v),
        }
    }

    fn encoded_len(&self) -> usize {
        CachedStream::encoded_len(self)
    }

    fn shard_slot(&self) -> Option<&ShardIndexSlot> {
        match self {
            CachedStream::Owned(s) => StreamAccess::shard_slot(&**s),
            CachedStream::View(v) => StreamAccess::shard_slot(&**v),
        }
    }

    fn registry_addr(&self) -> usize {
        match self {
            CachedStream::Owned(s) => s.registry_addr(),
            CachedStream::View(v) => StreamAccess::registry_addr(&**v),
        }
    }
}

type Slot = Arc<Mutex<Option<CachedStream>>>;

/// Counters of a [`StreamCache`] and its optional disk backing — the
/// numbers `llc-serve` reports under `GET /store/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCacheStats {
    /// Requests answered from process memory.
    pub hits: u64,
    /// Requests answered by loading a `.llcs` file from the attached
    /// [`StreamStore`] (no simulation ran).
    pub disk_hits: u64,
    /// Disk hits served as zero-copy [`StreamView`]s — no per-record
    /// decode, arena bytes charged once (a subset of `disk_hits`; today
    /// every disk hit loads as a view, so the split exists to catch the
    /// day that stops being true).
    pub view_loads: u64,
    /// Requests that had to record the stream with a full simulation.
    pub misses: u64,
    /// Entries evicted from memory by the byte cap (their disk copies,
    /// if any, survive).
    pub evictions: u64,
    /// Stored-copy failures that were recovered by re-recording (a
    /// corrupt `.llcs` file) or shrugged off (a failed persist).
    pub disk_errors: u64,
    /// Corrupt `.llcs` files moved into the store's `quarantine/`
    /// directory (a subset of `disk_errors`).
    pub quarantined: u64,
    /// Encoded bytes currently held in memory.
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
    /// Encoded size once recorded; 0 while the recording is in flight.
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<StreamKey, CacheEntry>,
    clock: u64,
    limit: Option<u64>,
    store: Option<StreamStore>,
    stats: StreamCacheStats,
}

/// A keyed, thread-safe cache of recorded streams, shared by every
/// experiment in a suite (or every job in an `llc-serve` daemon) so each
/// (workload, hierarchy) pair is recorded exactly once no matter how many
/// policies replay it — including from parallel workers.
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
///   encoded size of every resident stream and evicts the
///   least-recently-used entries when an insert pushes the total over
///   the cap (the newest entry is never evicted, so a single oversized
///   stream still caches). Counters are exposed via
///   [`StreamCache::stats`].
/// * **A persistent backing store** ([`StreamCache::attach_store`]): the
///   in-memory cache becomes a read-through layer over an on-disk
///   [`StreamStore`] keyed by [`StreamKey::fingerprint`]. A miss first
///   tries the store (a *disk hit* skips the recording simulation
///   entirely, even in a fresh process); a recording is persisted back.
///   A corrupt stored file is counted, re-recorded and overwritten —
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

    /// Creates an empty cache with an in-memory byte cap.
    pub fn with_limit(limit_bytes: u64) -> Self {
        let cache = StreamCache::new();
        cache.set_limit(Some(limit_bytes));
        cache
    }

    /// Sets (or clears) the in-memory byte cap and evicts immediately if
    /// the cache is already over the new cap.
    pub fn set_limit(&self, limit_bytes: Option<u64>) {
        let mut inner = lock_recovering(&self.inner);
        inner.limit = limit_bytes;
        Self::evict_over_limit(&mut inner, None);
    }

    /// Attaches a persistent [`StreamStore`]; the cache becomes a
    /// read-through/write-through layer over it.
    pub fn attach_store(&self, store: StreamStore) {
        lock_recovering(&self.inner).store = Some(store);
    }

    /// Builds a cache backed by `store` with an in-memory cap.
    pub fn with_store(store: StreamStore, limit_bytes: Option<u64>) -> Self {
        let cache = StreamCache::new();
        cache.attach_store(store);
        cache.set_limit(limit_bytes);
        cache
    }

    /// The default in-memory byte cap for a run with `jobs` concurrent
    /// experiments: 512 MiB of encoded streams per job — comfortably the
    /// working set of a paper-scale experiment — with a 2 GiB floor so
    /// small worker counts never thrash the suite's shared recordings.
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

    /// Number of cached streams (recorded, not merely reserved).
    pub fn len(&self) -> usize {
        let inner = lock_recovering(&self.inner);
        inner
            .map
            .values()
            .filter(|entry| lock_recovering(&entry.slot).is_some())
            .count()
    }

    /// `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-destructive availability probe for DAG planners: the encoded
    /// size of `key`'s stream if it is resident in memory or present in
    /// the attached store, `None` otherwise. Never records, loads or
    /// touches LRU state, so planning a spec cannot perturb the cache.
    pub fn probe(&self, key: &StreamKey) -> Option<u64> {
        let (slot, store) = {
            let inner = lock_recovering(&self.inner);
            (
                inner.map.get(key).map(|e| Arc::clone(&e.slot)),
                inner.store.clone(),
            )
        };
        if let Some(slot) = slot {
            if let Some(stream) = lock_recovering(&slot).as_ref() {
                return Some(stream.encoded_len() as u64);
            }
        }
        let store = store?;
        std::fs::metadata(store.path_for(key.fingerprint()))
            .ok()
            .map(|m| m.len())
    }

    /// `true` if `key`'s stream is resident in memory right now — the
    /// condition under which its registered shard indexes are alive (a
    /// planner's approximation of the index node's hit state).
    pub fn resident(&self, key: &StreamKey) -> bool {
        let slot = {
            let inner = lock_recovering(&self.inner);
            inner.map.get(key).map(|e| Arc::clone(&e.slot))
        };
        slot.is_some_and(|slot| lock_recovering(&slot).is_some())
    }

    /// Returns the stream for `key`: from memory if resident, else from
    /// the attached store's `.llcs` file if present and intact (loaded
    /// as a zero-copy [`CachedStream::View`]), else by recording it via
    /// `make_trace` under `key.config` (and persisting the recording if
    /// a store is attached).
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
    ) -> Result<CachedStream, RunError>
    where
        W: TraceSource,
        F: FnOnce() -> W,
    {
        let (slot, store) = {
            let mut inner = lock_recovering(&self.inner);
            inner.clock += 1;
            let clock = inner.clock;
            let entry = inner.map.entry(key).or_default();
            entry.stamp = clock;
            (Arc::clone(&entry.slot), inner.store.clone())
        };
        let mut guard = lock_recovering(&slot);
        if let Some(stream) = guard.as_ref() {
            let stream = stream.clone();
            drop(guard);
            let size = stream.encoded_len() as u64;
            let mut inner = lock_recovering(&self.inner);
            inner.stats.hits += 1;
            METRICS.cache_hits.inc();
            // A hit can race the byte cap: eviction may have removed the
            // map entry between slot resolution and here while this Arc
            // kept the stream alive. Re-adopt the slot so the bytes this
            // handle pins stay accounted — otherwise the next request
            // would load a second arena for a stream still resident,
            // double-charging the cap in real memory.
            if !inner.map.contains_key(&key) {
                Self::charge(&mut inner, key, &slot, size);
                Self::evict_over_limit(&mut inner, Some(&key));
            }
            return Ok(stream);
        }

        // Not in memory: try the persistent store, then record. Both
        // happen under the slot lock so concurrent requesters of the same
        // key share one load/recording. A disk hit is served zero-copy:
        // the `.llcs` bytes are validated in place and replayed straight
        // out of the arena, with no per-record decode into plane vectors.
        let fp = key.fingerprint();
        let mut from_disk = false;
        let stream = match store.as_ref().map(|s| s.load_view(fp)) {
            Some(Ok(Some(view))) => {
                from_disk = true;
                CachedStream::View(Arc::new(view))
            }
            Some(Err(_)) => {
                // Corrupt stored copy: count it, move the evidence to
                // quarantine/ (never delete it), re-record, overwrite.
                {
                    let mut inner = lock_recovering(&self.inner);
                    inner.stats.disk_errors += 1;
                    METRICS.cache_disk_errors.inc();
                    if let Some(store) = inner.store.clone() {
                        drop(inner);
                        if let Ok(Some(_)) = store.quarantine(fp) {
                            lock_recovering(&self.inner).stats.quarantined += 1;
                            METRICS.cache_quarantined.inc();
                        }
                    }
                }
                CachedStream::Owned(Arc::new(record_stream(&key.config, make_trace())?))
            }
            Some(Ok(None)) | None => {
                CachedStream::Owned(Arc::new(record_stream(&key.config, make_trace())?))
            }
        };
        if let (false, Some(store), CachedStream::Owned(owned)) =
            (from_disk, store.as_ref(), &stream)
        {
            if store.save(fp, owned).is_err() {
                lock_recovering(&self.inner).stats.disk_errors += 1;
                METRICS.cache_disk_errors.inc();
            }
        }
        *guard = Some(stream.clone());
        drop(guard);
        // Cached streams get a shard-index slot: replays of this stream
        // can now share lazily built `ShardIndex`es (see
        // `shard_index_for`), which live exactly as long as the stream.
        // Views carry the slot inside themselves; owned streams register
        // in the process-wide allocation-identity registry.
        if let CachedStream::Owned(owned) = &stream {
            shard_registry::register(owned);
        }

        // Account the insert and enforce the cap (never evicting the
        // entry just inserted).
        let mut inner = lock_recovering(&self.inner);
        if from_disk {
            inner.stats.disk_hits += 1;
            inner.stats.view_loads += 1;
            METRICS.cache_disk_hits.inc();
            METRICS.view_loads.inc();
        } else {
            inner.stats.misses += 1;
            METRICS.cache_misses.inc();
        }
        let size = stream.encoded_len() as u64;
        Self::charge(&mut inner, key, &slot, size);
        Self::evict_over_limit(&mut inner, Some(&key));
        Ok(stream)
    }

    /// Charges exactly `size` bytes for `key`'s filled `slot`, keeping
    /// the invariant `stats.bytes == Σ entry.bytes`: a re-charge adjusts
    /// by the signed difference (never drifts on shrink), and an entry
    /// evicted while its fill was in flight is re-inserted so the stream
    /// the caller's slot handle pins stays accounted. If another caller
    /// already re-created the entry around a *different* slot, that copy
    /// owns the accounting and this one is left as a transient duplicate
    /// rather than double-charging the key.
    fn charge(inner: &mut CacheInner, key: StreamKey, slot: &Slot, size: u64) {
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
    /// its cap again. `keep` (the entry being inserted) and in-flight
    /// recordings (`bytes == 0`) are never evicted.
    fn evict_over_limit(inner: &mut CacheInner, keep: Option<&StreamKey>) {
        let Some(limit) = inner.limit else { return };
        while inner.stats.bytes > limit {
            let victim = inner
                .map
                .iter()
                .filter(|&(k, e)| e.bytes > 0 && Some(k) != keep)
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
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
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
            let fast = replay(&c, &desc, &stream, None, Exec::Auto, vec![]).expect("replay");
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
    fn fused_annotations_match_legacy_pre_passes() {
        let c = cfg();
        let window = 64;
        let stream = stream_of(App::Dedup);
        let ann = compute_annotations(&stream, window);
        let next_legacy = crate::runner::compute_next_use(&c, App::Dedup.workload(4, Scale::Tiny))
            .expect("legacy next-use");
        let shared_legacy =
            crate::runner::compute_shared_soon(&c, App::Dedup.workload(4, Scale::Tiny), window)
                .expect("legacy shared-soon");
        assert_eq!(*ann.next_use, next_legacy);
        assert_eq!(*ann.shared_soon, shared_legacy);
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
        let mut other = cfg();
        other.llc = llc_sim::CacheConfig::from_kib(128, 8).expect("valid");
        assert!(matches!(
            replay_kind(&other, PolicyKind::Lru, &stream, vec![]),
            Err(RunError::Sim(SimError::Config(_)))
        ));
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
        assert!(Arc::ptr_eq(
            a.as_owned().expect("recorded"),
            b.as_owned().expect("cached")
        ));
        assert_eq!(cache.len(), 1);
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
        let bounded = StreamCache::with_limit(limit);
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
        assert!(bounded.len() < apps.len());

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
        assert!(store.contains(key.fingerprint()));
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
        assert_eq!(
            second.stats().view_loads,
            1,
            "the disk hit loads as a zero-copy view"
        );
        assert!(b.as_owned().is_none(), "disk hits are views, not decodes");
        assert!(a.accesses().eq(b.accesses()));
        assert_eq!(a.upgrades(), b.upgrades());

        // Corrupt the stored copy: the next fresh cache falls back to
        // re-recording (typed error internally, never surfaced) and
        // overwrites the bad file.
        let path = store.path_for(key.fingerprint());
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
                .join(format!("{:016x}.llcs", key.fingerprint()))
                .exists(),
            "quarantined evidence file exists"
        );
        assert_eq!(
            **a.as_owned().expect("recorded"),
            **c.as_owned().expect("re-recorded")
        );
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
