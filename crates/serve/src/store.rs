//! The persistent store's layout, and the result store inside it.
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
//! A result document is self-describing:
//!
//! ```json
//! {"version": 1, "fingerprint": "00123abc...", "experiment": "fig7",
//!  "tables": [{"title": ..., "headers": ..., "rows": ..., "notes": ...}]}
//! ```
//!
//! A document that is missing is `Ok(None)`; one that exists but cannot
//! be decoded (truncated, corrupted, wrong fingerprint after a rename) is
//! a [`ServeError::Protocol`] and has been quarantined — the daemon
//! treats that exactly like the stream cache treats a bad `.llcs`: count
//! it, recompute, overwrite.

use std::ops::Deref;
use std::path::PathBuf;

use llc_dag::{decode_annotations, decode_manifest, decode_replay, DagStore, NodeKind};
use llc_sharing::json::{self, table_from_json, table_to_json, Value};
use llc_sharing::Table;
use llc_trace::{ArtifactDir, LoadError, StreamStore};

use crate::sessions::{checkpoint_is_valid, checkpoints};
use crate::{io_err, ServeError};

/// File extension of stored result documents.
pub const RESULT_FILE_EXT: &str = "json";

/// Format version of the stored documents.
pub const RESULT_FORMAT_VERSION: u64 = 1;

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
            results: ResultStore::open(root.join("results"))?,
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

/// Decodes and validates a result document stored under `fp`.
fn decode_result(raw: &[u8], fp: u64) -> Result<Vec<Table>, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "not UTF-8".to_string())?;
    let v = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let version = v.field("version").and_then(Value::as_u64);
    if version != Some(RESULT_FORMAT_VERSION) {
        return Err(format!("unsupported result version {version:?}"));
    }
    let stored_fp = v
        .field("fingerprint")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("missing fingerprint")?;
    if stored_fp != fp {
        return Err(format!(
            "fingerprint mismatch: document says {stored_fp:016x}, file name says {fp:016x}"
        ));
    }
    v.field("tables")
        .and_then(Value::as_array)
        .ok_or("missing tables")?
        .iter()
        .map(table_from_json)
        .collect()
}

/// A directory of content-addressed experiment results: the result
/// codec over an [`ArtifactDir`] (which it derefs to for paths,
/// quarantine and disk statistics).
#[derive(Debug, Clone)]
pub struct ResultStore {
    files: ArtifactDir,
}

impl Deref for ResultStore {
    type Target = ArtifactDir;

    fn deref(&self) -> &ArtifactDir {
        &self.files
    }
}

impl ResultStore {
    /// Opens (creating if needed) the result store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, ServeError> {
        let dir = dir.into();
        let files = ArtifactDir::open(&dir, RESULT_FILE_EXT, "results")
            .map_err(|e| io_err(format!("creating result store {}", dir.display()), e))?;
        Ok(ResultStore { files })
    }

    /// Loads the tables stored under `fp`, or `Ok(None)` if there is no
    /// stored result, keeping a corrupt copy's quarantine outcome (see
    /// [`ArtifactDir::load_with`]).
    ///
    /// # Errors
    ///
    /// [`LoadError::Corrupt`] with a [`ServeError::Protocol`] when the
    /// document does not decode or validate; [`LoadError::Io`] when it
    /// cannot be read.
    pub fn fetch(&self, fp: u64) -> Result<Option<Vec<Table>>, LoadError<ServeError>> {
        self.files.load_with(fp, |raw| {
            decode_result(&raw, fp).map_err(|msg| {
                ServeError::Protocol(format!("{}: {msg}", self.path_for(fp).display()))
            })
        })
    }

    /// Loads the tables stored under `fp`, or `Ok(None)` if there is no
    /// stored result.
    ///
    /// # Errors
    ///
    /// A document that exists but cannot be decoded or fails validation
    /// (bad JSON, unknown version, fingerprint mismatch, malformed
    /// tables) is a [`ServeError::Protocol`] (and has been moved to
    /// `quarantine/`), so the caller can distinguish "never computed"
    /// from "stored copy is bad" and fall back to recomputing.
    pub fn load(&self, fp: u64) -> Result<Option<Vec<Table>>, ServeError> {
        self.fetch(fp).map_err(|e| self.error(fp, e))
    }

    /// The typed error of a failed [`ResultStore::fetch`].
    pub(crate) fn error(&self, fp: u64, e: LoadError<ServeError>) -> ServeError {
        e.into_error(|e| io_err(format!("reading {}", self.path_for(fp).display()), e))
    }

    /// Persists `tables` under `fp` with an atomic, fsynced write,
    /// replacing any previous (possibly corrupt) copy.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, fp: u64, experiment: &str, tables: &[Table]) -> Result<(), ServeError> {
        let doc = Value::object(vec![
            ("version", Value::Num(RESULT_FORMAT_VERSION as f64)),
            ("fingerprint", Value::Str(format!("{fp:016x}"))),
            ("experiment", Value::Str(experiment.to_string())),
            (
                "tables",
                Value::Array(tables.iter().map(table_to_json).collect()),
            ),
        ]);
        self.files
            .write(fp, doc.render().as_bytes())
            .map_err(|e| io_err(format!("writing {}", self.path_for(fp).display()), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("llcs-results-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(&dir).expect("open store")
    }

    fn sample_tables() -> Vec<Table> {
        let mut t = Table::new("Figure 7 — oracle gain", &["app", "gain"]);
        t.row(vec!["fft".into(), "12.3%".into()]);
        t.note("tiny scale");
        vec![t]
    }

    #[test]
    fn save_load_round_trips() {
        let store = temp_store("roundtrip");
        assert!(store.load(0xfeed).expect("empty load").is_none());
        let tables = sample_tables();
        store.save(0xfeed, "fig7", &tables).expect("save");
        assert!(store.contains(0xfeed));
        let back = store.load(0xfeed).expect("load").expect("present");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].title, tables[0].title);
        assert_eq!(back[0].rows, tables[0].rows);
        let (files, bytes) = store.disk_stats().expect("stats");
        assert_eq!(files, 1);
        assert!(bytes > 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corruption_and_mismatches_are_typed_errors() {
        let store = temp_store("corrupt");
        let tables = sample_tables();
        store.save(0xbeef, "fig7", &tables).expect("save");
        // Truncated JSON.
        let path = store.path_for(0xbeef);
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert!(matches!(store.load(0xbeef), Err(ServeError::Protocol(_))));
        // A valid document filed under the wrong name (e.g. a manual
        // rename) must not be served as someone else's result.
        store.save(0xbeef, "fig7", &tables).expect("re-save");
        fs::rename(store.path_for(0xbeef), store.path_for(0xdead)).expect("rename");
        assert!(matches!(store.load(0xdead), Err(ServeError::Protocol(_))));
        // Recovery: overwrite the bad entry.
        store.save(0xdead, "fig7", &tables).expect("overwrite");
        assert!(store.load(0xdead).expect("load").is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantine_preserves_the_corrupt_document() {
        let store = temp_store("quarantine");
        store.save(0xabad, "fig7", &sample_tables()).expect("save");
        let path = store.path_for(0xabad);
        fs::write(&path, "{ not json").expect("corrupt");
        // The failing load itself moves the document aside.
        assert!(matches!(
            store.fetch(0xabad),
            Err(LoadError::Corrupt {
                error: ServeError::Protocol(_),
                quarantined: true
            })
        ));
        let moved = store
            .dir()
            .join(llc_trace::QUARANTINE_DIR)
            .join(path.file_name().expect("name"));
        assert_eq!(fs::read_to_string(&moved).expect("evidence"), "{ not json");
        assert!(!store.contains(0xabad));
        assert!(store.load(0xabad).expect("now a miss").is_none());
        // Idempotent on a missing entry.
        assert!(store.quarantine(0xabad).expect("repeat").is_none());
        // Quarantined files no longer count toward disk stats.
        let (files, _) = store.disk_stats().expect("stats");
        assert_eq!(files, 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn rejects_future_format_versions() {
        let store = temp_store("version");
        let path = store.path_for(1);
        fs::write(
            &path,
            "{\"version\":99,\"fingerprint\":\"0000000000000001\",\"tables\":[]}",
        )
        .expect("write");
        assert!(matches!(store.load(1), Err(ServeError::Protocol(_))));
        let _ = fs::remove_dir_all(store.dir());
    }
}
