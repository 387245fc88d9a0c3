//! Replay memoization: the execution side of the artifact graph.
//!
//! Every experiment compares policies over *identical* reference
//! streams, so the same baselines (plain LRU, Oracle(LRU) at the default
//! window, the LRU sharing profile) recur across the whole campaign.
//! [`ExperimentCtx`] owns a replay memo — the in-process tier in front
//! of the optional [`DagStore`] — and every replay whose output can be
//! memoized resolves through it, so one campaign executes each
//! (stream, descriptor) node at most once.
//!
//! # Stats tier
//!
//! [`ExperimentCtx::replay_cached`] resolves one [`ReplayDesc`] keyed by
//! `replay_fp(stream_fp, desc_fp)`:
//!
//! 1. **Memo entry**: a node resolved earlier in this campaign or job
//!    answers from memory.
//! 2. **Replay node** in the DAG store, when attached: a hit returns the
//!    stored [`RunResult`] as is, without touching the stream at all, and
//!    fills the memo.
//! 3. **Annotation node** (`annotations_fp(stream_fp, window)`), for
//!    descriptors that need a pre-pass (oracle wraps, OPT): loaded from
//!    the store or computed once with the fused backward scan and
//!    persisted.
//! 4. The replay executes through [`replay`] over the stream cache's
//!    owned [`RecordedStream`] with the resolved annotations injected; the
//!    result is persisted as a new replay node and memoized.
//!
//! # Observer products
//!
//! Two observer outputs are products of the plain-LRU node and live in
//! the same memo (in process only; they are never persisted):
//!
//! * [`ExperimentCtx::profile`]: the LRU run's [`SharingProfile`], kept
//!   [compacted](SharingProfile::compact) — counters and the two
//!   footprint counts, never the per-block footprint map;
//! * [`ExperimentCtx::predictor_studies`]: the [`ConfusionMatrix`] of
//!   each [`PredictorStudy`], keyed by (LRU node, [`PredictorKind`],
//!   [`TableConfig`]). The studies a call misses all ride one LRU
//!   replay, one observer each, so `fig9` (six designs) and `table3`
//!   (six design × budget keys) replay each app once.
//!
//! A product run also records its LRU [`RunResult`] under the LRU node:
//! observers never change policy behaviour, and sharded and sequential
//! replays are bit-identical, so the counters are the stats tier's.
//! Observed replays always run sequentially (see [`replay`]).
//!
//! # Not memoized
//!
//! Victimization stats (fig6), epoch series (fig11) and the
//! multi-programmed mixes (abl5) are read by one experiment each, so an
//! entry would never be hit. Annotations are not memoized in process:
//! holding them for a whole campaign costs far more resident memory
//! (9 B per reference per window) than their one fused scan costs time.
//!
//! # Sharing and failure
//!
//! Cloning the context shares the memo, so it lives exactly as long as
//! one batch campaign or one daemon job. Concurrent requesters of one
//! key share one execution (a per-key slot, like the stream cache's). An
//! `Err` is never memoized; a panicking replay unwinds to the caller
//! (the suite's `catch_unwind` sees it) and leaves its slot empty, so
//! the next requester recomputes and other keys are untouched.
//!
//! Bit-identity holds by construction: memo and replay nodes hold the
//! exact counters of the run that produced them, and annotation
//! artifacts store the exact vectors the scan produced, so warm and cold
//! paths feed byte-identical inputs to byte-identical kernels.
//! Persistence failures only bump counters; corruption is quarantined
//! inside [`DagStore`] and surfaces here as a miss.

use std::hash::Hash;
use std::sync::{Arc, LazyLock, Mutex, TryLockError};

use fxhash::FxHashMap;
use llc_dag::{annotations_fp, replay_fp, AnnotationsData, DagStore, NodeKind, ReplayDesc};
use llc_policies::PolicyKind;
use llc_predictors::{
    build_predictor_with, ConfusionMatrix, PredictorKind, PredictorStudy, TableConfig,
};
use llc_sim::{HierarchyConfig, LlcObserver};
use llc_telemetry::metrics::{global, Counter};
use llc_trace::{App, RecordedStream};

use crate::characterize::SharingProfile;
use crate::error::RunError;
use crate::experiments::ExperimentCtx;
use crate::replay::{compute_annotations, lock_recovering, replay, Annotations, Exec};
use crate::runner::RunResult;

/// Memo lookups by outcome, over every tier and product.
struct MemoMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

static METRICS: LazyLock<MemoMetrics> = LazyLock::new(|| MemoMetrics {
    hits: global().counter(
        "llc_replay_memo_hits_total",
        "Replay results and observer products answered from the in-process memo",
    ),
    misses: global().counter(
        "llc_replay_memo_misses_total",
        "Replay results and observer products the in-process memo had to resolve",
    ),
});

/// One memo entry: filled once, shared by every requester of its key.
type Slot<T> = Arc<Mutex<Option<T>>>;

/// A predictor-study product's key: the LRU node it observes plus the
/// predictor design and its table budget.
type StudyKey = (u64, PredictorKind, TableConfig);

#[derive(Debug, Default)]
struct Entries {
    stats: FxHashMap<u64, Slot<RunResult>>,
    profiles: FxHashMap<u64, Slot<(RunResult, SharingProfile)>>,
    studies: FxHashMap<StudyKey, Slot<ConfusionMatrix>>,
}

/// The in-process replay memo an [`ExperimentCtx`] owns (see the module
/// docs). Cloning shares it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayMemo {
    entries: Arc<Mutex<Entries>>,
}

/// The slot for `key`, created empty on first request.
fn slot<K: Hash + Eq, T>(map: &mut FxHashMap<K, Slot<T>>, key: K) -> Slot<T> {
    Arc::clone(map.entry(key).or_default())
}

/// Answers from `slot` or fills it with `compute`, which runs under the
/// slot's lock so concurrent requesters of one key share one execution.
/// An `Err` leaves the slot empty; so does a panic (the poisoned lock is
/// recovered by the next requester, who finds `None`).
fn resolve<T: Clone>(
    slot: &Slot<T>,
    compute: impl FnOnce() -> Result<T, RunError>,
) -> Result<T, RunError> {
    let mut guard = lock_recovering(slot);
    if let Some(value) = guard.as_ref() {
        METRICS.hits.inc();
        return Ok(value.clone());
    }
    METRICS.misses.inc();
    let value = compute()?;
    *guard = Some(value.clone());
    Ok(value)
}

impl ReplayMemo {
    fn stats_slot(&self, node_fp: u64) -> Slot<RunResult> {
        slot(&mut lock_recovering(&self.entries).stats, node_fp)
    }

    /// Records a result that executed outside the stats tier (an
    /// observer product's run) under its node. Never waits: a slot that
    /// is being filled right now gets the same bits from its filler.
    fn record(&self, node_fp: u64, result: &RunResult) {
        let slot = self.stats_slot(node_fp);
        let mut guard = match slot.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        guard.get_or_insert_with(|| result.clone());
    }
}

/// Resolves the annotation vectors for `window` over `stream`: from the
/// DAG store when attached and intact, otherwise by one fused backward
/// scan (persisted back when a store is attached). The loaded artifact
/// is shape-checked against the stream — a mismatch (which the
/// fingerprint should make impossible) recomputes rather than corrupts.
fn resolve_annotations(
    dag: Option<(&DagStore, u64)>,
    stream: &RecordedStream,
    window: u64,
) -> Annotations {
    let Some((dag, stream_fp)) = dag else {
        return compute_annotations(stream, window);
    };
    let fp = annotations_fp(stream_fp, window);
    if let Some(data) = dag.load_annotations(fp) {
        if data.window == window && data.next_use.len() == stream.len() {
            dag.record_hit(NodeKind::Annotations);
            return Annotations {
                next_use: Arc::new(data.next_use),
                shared_soon: Arc::new(data.shared_soon),
            };
        }
    }
    dag.record_miss(NodeKind::Annotations);
    let ann = compute_annotations(stream, window);
    let saved = dag.save_annotations(
        fp,
        &AnnotationsData {
            window,
            next_use: ann.next_use.to_vec(),
            shared_soon: ann.shared_soon.to_vec(),
        },
    );
    if saved.is_err() {
        dag.record_disk_error();
    }
    ann
}

impl ExperimentCtx {
    /// The node key of plain LRU over `app`'s stream under `config`: the
    /// node the observer products belong to.
    fn lru_node(&self, app: App, config: &HierarchyConfig) -> u64 {
        replay_fp(
            self.stream_key(app, config).fingerprint(),
            ReplayDesc::plain(PolicyKind::Lru).fingerprint(),
        )
    }

    /// Replays `desc` for `app` under `config`, resolving through the
    /// memo and then the attached DAG store (see the module docs): a
    /// memo or replay-node hit answers without loading the stream; a
    /// miss records/loads the stream, reuses any cached annotation
    /// pre-pass, executes exactly one replay and persists both partials.
    ///
    /// # Errors
    ///
    /// Propagates recording/replay errors; store problems never fail
    /// the call (they surface as misses and counter bumps).
    pub fn replay_cached(
        &self,
        app: App,
        config: &HierarchyConfig,
        desc: &ReplayDesc,
    ) -> Result<RunResult, RunError> {
        let stream_fp = self.stream_key(app, config).fingerprint();
        let node_fp = replay_fp(stream_fp, desc.fingerprint());
        resolve(&self.memo.stats_slot(node_fp), || {
            let dag = self.dag.as_ref();
            if let Some(dag) = dag {
                if let Some(result) = dag.load_replay(node_fp) {
                    dag.record_hit(NodeKind::Replay);
                    return Ok(result);
                }
                dag.record_miss(NodeKind::Replay);
            }
            let stream = self.stream(app, config)?;
            let ann = desc
                .annotation_window()
                .map(|window| resolve_annotations(dag.map(|d| (d, stream_fp)), &stream, window));
            let result = replay(config, desc, &stream, ann.as_ref(), Exec::Auto, vec![])?;
            if let Some(dag) = dag {
                dag.record_replay_executed();
                if dag.save_replay(node_fp, &result).is_err() {
                    dag.record_disk_error();
                }
            }
            Ok(result)
        })
    }

    /// `app`'s LRU run at LLC `capacity` with its [`SharingProfile`]
    /// (compacted: the per-block footprint map is folded into its two
    /// counts), replayed once per memo and shared by every
    /// characterization table.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Sim`] for an invalid capacity and propagates
    /// recording/replay errors.
    pub fn profile(
        &self,
        app: App,
        capacity: u64,
    ) -> Result<(RunResult, SharingProfile), RunError> {
        let config = self.config(capacity)?;
        let lru = self.lru_node(app, &config);
        let slot = slot(&mut lock_recovering(&self.memo.entries).profiles, lru);
        resolve(&slot, || {
            let mut profile = SharingProfile::new();
            let result = self.replay_lru_observed(app, &config, lru, vec![&mut profile])?;
            profile.compact();
            Ok((result, profile))
        })
    }

    /// The confusion matrices of several `(design, table)` predictor
    /// studies over `app`'s LRU run under `config`, in `keys` order.
    /// Studies the memo already holds are hits; all the missing ones
    /// ride **one** LRU replay, one [`PredictorStudy`] observer each, so
    /// `fig9` and `table3` replay each app once and share their common
    /// studies.
    ///
    /// The missing slots stay locked, in key order, until the replay
    /// has filled them: concurrent callers with overlapping keys never
    /// deadlock, and each study still executes at most once per memo.
    ///
    /// # Errors
    ///
    /// Propagates recording/replay errors; no slot is filled then.
    pub fn predictor_studies(
        &self,
        app: App,
        config: &HierarchyConfig,
        keys: &[(PredictorKind, TableConfig)],
    ) -> Result<Vec<ConfusionMatrix>, RunError> {
        let lru = self.lru_node(app, config);
        let mut order = keys.to_vec();
        order.sort_unstable();
        order.dedup();
        let slots: Vec<Slot<ConfusionMatrix>> = {
            let mut entries = lock_recovering(&self.memo.entries);
            order
                .iter()
                .map(|&(design, table)| slot(&mut entries.studies, (lru, design, table)))
                .collect()
        };
        let mut guards: Vec<_> = slots.iter().map(|slot| lock_recovering(slot)).collect();
        let missing: Vec<usize> = (0..order.len()).filter(|&i| guards[i].is_none()).collect();
        METRICS.hits.add((order.len() - missing.len()) as u64);
        METRICS.misses.add(missing.len() as u64);
        if !missing.is_empty() {
            let mut studies: Vec<PredictorStudy> = missing
                .iter()
                .map(|&i| PredictorStudy::new(build_predictor_with(order[i].0, order[i].1)))
                .collect();
            let observers = studies
                .iter_mut()
                .map(|study| study as &mut dyn LlcObserver)
                .collect();
            self.replay_lru_observed(app, config, lru, observers)?;
            for (&i, study) in missing.iter().zip(&studies) {
                *guards[i] = Some(study.matrix());
            }
        }
        Ok(keys
            .iter()
            .map(|key| {
                let i = order.binary_search(key).expect("every key is in `order`");
                guards[i].expect("every slot is filled")
            })
            .collect())
    }

    /// Replays plain LRU over `app`'s stream with `observers` attached
    /// and records the run under its node, `lru`.
    fn replay_lru_observed(
        &self,
        app: App,
        config: &HierarchyConfig,
        lru: u64,
        observers: Vec<&mut dyn LlcObserver>,
    ) -> Result<RunResult, RunError> {
        let stream = self.stream(app, config)?;
        let result = replay(
            config,
            &ReplayDesc::plain(PolicyKind::Lru),
            &stream,
            None,
            Exec::Auto,
            observers,
        )?;
        self.memo.record(lru, &result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_not_memoized() {
        let slot: Slot<u64> = Slot::default();
        let failed = resolve(&slot, || {
            Err(RunError::Sim(llc_sim::SimError::from(
                llc_sim::ConfigError::new("boom"),
            )))
        });
        assert!(failed.is_err());
        assert!(lock_recovering(&slot).is_none());
        assert_eq!(resolve(&slot, || Ok(7)).unwrap(), 7);
        assert_eq!(resolve(&slot, || Ok(8)).unwrap(), 7, "second call hits");
    }

    #[test]
    fn a_panicking_fill_leaves_the_slot_empty_and_other_keys_working() {
        let memo = ReplayMemo::default();
        let (a, b) = (memo.stats_slot(1), memo.stats_slot(2));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resolve(&a, || -> Result<RunResult, RunError> {
                panic!("replay panicked")
            })
        }));
        assert!(panicked.is_err(), "the panic reaches the caller");
        assert!(a.is_poisoned());
        let result = RunResult {
            policy: "LRU".into(),
            ..RunResult::default()
        };
        assert_eq!(resolve(&b, || Ok(result.clone())).unwrap(), result);
        assert_eq!(resolve(&a, || Ok(result.clone())).unwrap(), result);
        assert_eq!(*lock_recovering(&memo.stats_slot(1)), Some(result));
    }

    #[test]
    fn record_fills_an_empty_slot_only() {
        let memo = ReplayMemo::default();
        let first = RunResult {
            policy: "first".into(),
            ..RunResult::default()
        };
        let second = RunResult {
            policy: "second".into(),
            ..RunResult::default()
        };
        memo.record(9, &first);
        memo.record(9, &second);
        assert_eq!(*lock_recovering(&memo.stats_slot(9)), Some(first));
    }
}
