//! The persistent store's layout.
//!
//! One `--store` root holds every persisted artifact, each directory an
//! [`ArtifactDir`] (content-addressed, crash-safe writes, mtime touch on
//! load, quarantine on corruption):
//!
//! ```text
//! <root>/streams/<fp>.llcs        recorded LLC reference streams  (StreamStore)
//! <root>/results/<fp>.json        merged experiment tables        (ResultStore)
//! <root>/dag/ann/<fp>.llca        annotation pre-pass partials    (DagStore)
//! <root>/dag/replays/<fp>.llcr    per-policy replay partials      (DagStore)
//! <root>/dag/manifests/<fp>.llcm  per-spec node lists             (DagStore)
//! <root>/sessions/<id>.json       live-session checkpoints (id-named)
//! <root>/queued-jobs.json         drain checkpoint of queued specs
//! ```
//!
//! [`Store::open`] opens that layout in one place for the daemon,
//! `repro explain`, `repro ingest` and `repro gc`, and `Store::dirs`
//! hands GC every directory with the decoder that serves it.
//!
//! `results/` has two writers. The daemon saves each finished job there,
//! and the batch runner (`repro --store <root>`) saves each finished
//! experiment there; both use [`ResultStore`] from `llc-sharing` and the
//! same key, [`JobSpec::fingerprint`](crate::JobSpec::fingerprint) =
//! `ExperimentCtx::result_fingerprint`, so a table either one computed
//! answers the other.

use std::path::PathBuf;

use llc_dag::{decode_annotations, decode_manifest, decode_replay, DagStore, NodeKind};
use llc_sharing::results::{decode_result, ResultStore, RESULTS_DIR};
use llc_trace::{ArtifactDir, StreamStore};

use crate::sessions::{checkpoint_is_valid, checkpoints};
use crate::{io_err, ServeError};

/// The persistent store rooted at one directory (see the module docs
/// for the layout).
#[derive(Debug, Clone)]
pub struct Store {
    /// The root directory.
    pub root: PathBuf,
    /// `streams/`: recorded `.llcs` streams.
    pub streams: StreamStore,
    /// `results/`: merged experiment tables.
    pub results: ResultStore,
    /// `dag/`: annotation and replay partials plus spec manifests.
    pub dag: DagStore,
    /// `sessions/`: live-session checkpoints, named by session id rather
    /// than by fingerprint.
    pub sessions: ArtifactDir,
}

/// One directory of the layout as GC sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreDir<'a> {
    /// The directory.
    pub files: &'a ArtifactDir,
    /// `true` when an entry's bytes load through the decoder that serves
    /// the directory, given the fingerprint its name carries.
    pub verify: fn(Vec<u8>, Option<u64>) -> bool,
    /// `false` for session checkpoints: live state, verified but never
    /// evicted.
    pub evictable: bool,
    /// The node kind of a DAG partial, collected when no manifest
    /// references it.
    pub partial: Option<NodeKind>,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if a store directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, ServeError> {
        let root = root.into();
        let opening =
            |what: &str, e| io_err(format!("opening {what} store under {}", root.display()), e);
        Ok(Store {
            streams: StreamStore::open(root.join("streams")).map_err(|e| opening("stream", e))?,
            results: ResultStore::open(root.join(RESULTS_DIR))?,
            dag: DagStore::open(root.join("dag")).map_err(|e| opening("DAG", e))?,
            sessions: checkpoints(&root),
            root,
        })
    }

    /// Every directory GC sweeps, each with the decoder that serves it.
    pub(crate) fn dirs(&self) -> [StoreDir<'_>; 6] {
        let cached = |files, verify, partial| StoreDir {
            files,
            verify,
            evictable: true,
            partial,
        };
        [
            cached(
                &*self.streams,
                |raw, fp| fp.is_some() && StreamStore::decode(raw).is_ok(),
                None,
            ),
            cached(
                &*self.results,
                |raw, fp| fp.is_some_and(|fp| decode_result(&raw, fp).is_ok()),
                None,
            ),
            cached(
                self.dag.ann(),
                |raw, fp| fp.is_some_and(|fp| decode_annotations(&raw, fp).is_ok()),
                Some(NodeKind::Annotations),
            ),
            cached(
                self.dag.replays(),
                |raw, fp| fp.is_some_and(|fp| decode_replay(&raw, fp).is_ok()),
                Some(NodeKind::Replay),
            ),
            cached(
                self.dag.manifests(),
                |raw, fp| fp.is_some_and(|fp| decode_manifest(&raw, fp).is_ok()),
                None,
            ),
            StoreDir {
                files: &self.sessions,
                verify: |raw, _| std::str::from_utf8(&raw).is_ok_and(checkpoint_is_valid),
                evictable: false,
                partial: None,
            },
        ]
    }
}
