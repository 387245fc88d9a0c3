//! DAG-memoized replay: the execution side of the artifact graph.
//!
//! [`ExperimentCtx::replay_cached`] is the single entry through which
//! pure-stats experiment replays resolve when a [`DagStore`] is
//! attached. Resolution order per [`ReplayDesc`]:
//!
//! 1. **Replay node** (`replay_fp(stream_fp, desc_fp)`): a hit returns
//!    the stored [`RunResult`] as is — without touching the stream at
//!    all, so a fully warmed spec never loads a `.llcs` file.
//! 2. **Annotation node** (`annotations_fp(stream_fp, window)`), for
//!    descriptors that need a pre-pass (oracle wraps, OPT): loaded from
//!    the store or computed once with the fused backward scan and
//!    persisted.
//! 3. The replay executes through [`replay`] with the resolved
//!    annotations injected, and the result is persisted as a new replay
//!    node.
//!
//! Bit-identity holds by construction: a replay node stores the exact
//! counters of the run that produced it, and annotation artifacts store
//! the exact vectors the scan produced, so warm and cold paths feed
//! byte-identical inputs to byte-identical kernels. Observer-carrying
//! runs never come through here — observers see per-access events that
//! a cached result cannot reproduce.
//!
//! Persistence failures only bump counters; corruption is quarantined
//! inside [`DagStore`] and surfaces here as a miss.

use std::sync::Arc;

use llc_dag::{annotations_fp, replay_fp, AnnotationsData, DagStore, NodeKind, ReplayDesc};
use llc_sim::HierarchyConfig;
use llc_trace::{App, StreamAccess};

use crate::error::RunError;
use crate::experiments::ExperimentCtx;
use crate::replay::{compute_annotations, replay, Annotations, CachedStream, Exec};
use crate::runner::RunResult;

/// Resolves the annotation vectors for `window` over `stream`: from the
/// DAG store when attached and intact, otherwise by one fused backward
/// scan (persisted back when a store is attached). The loaded artifact
/// is shape-checked against the stream — a mismatch (which the
/// fingerprint should make impossible) recomputes rather than corrupts.
fn resolve_annotations<S: StreamAccess>(
    dag: Option<(&DagStore, u64)>,
    stream: &S,
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

/// Runs one descriptor over `stream`, resolving any needed annotations
/// through the DAG. Generic so the daemon path monomorphizes separately
/// for owned streams and zero-copy views — the [`CachedStream`] enum is
/// matched exactly once, in [`dispatch`], and the replay loops below run
/// branch-free over the concrete representation.
fn execute<S: StreamAccess + Sync>(
    dag: Option<(&DagStore, u64)>,
    config: &HierarchyConfig,
    desc: &ReplayDesc,
    stream: &S,
) -> Result<RunResult, RunError> {
    let ann = desc
        .annotation_window()
        .map(|window| resolve_annotations(dag, stream, window));
    replay(config, desc, stream, ann.as_ref(), Exec::Auto, vec![])
}

/// The single point where a [`CachedStream`]'s representation is
/// branched on: everything downstream of here is monomorphized for the
/// concrete stream type.
fn dispatch(
    dag: Option<(&DagStore, u64)>,
    config: &HierarchyConfig,
    desc: &ReplayDesc,
    stream: &CachedStream,
) -> Result<RunResult, RunError> {
    match stream {
        CachedStream::Owned(s) => execute(dag, config, desc, &**s),
        CachedStream::View(v) => execute(dag, config, desc, &**v),
    }
}

impl ExperimentCtx {
    /// Replays `desc` for `app` under `config`, resolving through the
    /// attached DAG store: a cached replay node answers without loading
    /// the stream; a miss records/loads the stream, reuses any cached
    /// annotation pre-pass, executes exactly one replay and persists
    /// both partials. Without a DAG this is a plain uncached replay.
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
        let Some(dag) = &self.dag else {
            let stream = self.stream(app, config)?;
            return dispatch(None, config, desc, &stream);
        };
        let stream_fp = self.stream_key(app, config).fingerprint();
        let node_fp = replay_fp(stream_fp, desc.fingerprint());
        if let Some(result) = dag.load_replay(node_fp) {
            dag.record_hit(NodeKind::Replay);
            return Ok(result);
        }
        dag.record_miss(NodeKind::Replay);
        let stream = self.stream(app, config)?;
        let result = dispatch(Some((dag, stream_fp)), config, desc, &stream)?;
        dag.record_replay_executed();
        if dag.save_replay(node_fp, &result).is_err() {
            dag.record_disk_error();
        }
        Ok(result)
    }
}
