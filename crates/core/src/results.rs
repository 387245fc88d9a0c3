//! The result store: finished experiment tables, content-addressed by
//! [`ExperimentCtx::result_fingerprint`](crate::ExperimentCtx::result_fingerprint).
//!
//! `<root>/results/<fp>.json` has two writers that share one key and
//! one document format: the batch runner (`repro --store <root>`, through
//! [`run_suite`](crate::run_suite)) and the daemon (`repro serve --store
//! <root>`). A table either of them saved answers the other, because the
//! key is a fingerprint of the experiment and the *resolved* context
//! (machine geometry, scale, thread count, app set), never of a label.
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
//! a typed error and has been quarantined — the caller treats that
//! exactly like the stream cache treats a bad `.llcs`: count it,
//! recompute, overwrite.

use std::io;
use std::ops::Deref;
use std::path::PathBuf;

use llc_trace::{ArtifactDir, LoadError};

use crate::error::RunError;
use crate::json::{self, table_from_json, table_to_json, Value};
use crate::report::Table;

/// Name of the result directory under a store root.
pub const RESULTS_DIR: &str = "results";

/// File extension of stored result documents.
pub const RESULT_FILE_EXT: &str = "json";

/// Format version of the stored documents.
pub const RESULT_FORMAT_VERSION: u64 = 1;

/// Decodes and validates a result document stored under `fp`.
///
/// # Errors
///
/// Describes the first problem: not UTF-8 or JSON, an unknown version, a
/// fingerprint that disagrees with `fp`, or malformed tables.
pub fn decode_result(raw: &[u8], fp: u64) -> Result<Vec<Table>, String> {
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
    /// [`RunError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, RunError> {
        let dir = dir.into();
        let files =
            ArtifactDir::open(&dir, RESULT_FILE_EXT, "results").map_err(|source| RunError::Io {
                context: format!("creating result store {}", dir.display()),
                source,
            })?;
        Ok(ResultStore { files })
    }

    /// Loads the tables stored under `fp`, or `Ok(None)` if there is no
    /// stored result, keeping a corrupt copy's quarantine outcome (see
    /// [`ArtifactDir::load_with`]).
    ///
    /// # Errors
    ///
    /// [`LoadError::Corrupt`] with a [`RunError::Io`] of kind
    /// [`io::ErrorKind::InvalidData`] when the document does not decode
    /// or validate; [`LoadError::Io`] when it cannot be read.
    pub fn fetch(&self, fp: u64) -> Result<Option<Vec<Table>>, LoadError<RunError>> {
        self.files.load_with(fp, |raw| {
            decode_result(&raw, fp).map_err(|msg| RunError::Io {
                context: format!("decoding {}", self.path_for(fp).display()),
                source: io::Error::new(io::ErrorKind::InvalidData, msg),
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
    /// tables) is a [`RunError::Io`] of kind
    /// [`io::ErrorKind::InvalidData`] (and has been moved to
    /// `quarantine/`), so the caller can distinguish "never computed"
    /// from "stored copy is bad" and fall back to recomputing.
    pub fn load(&self, fp: u64) -> Result<Option<Vec<Table>>, RunError> {
        self.fetch(fp).map_err(|e| self.error(fp, e))
    }

    /// The typed error of a failed [`ResultStore::fetch`].
    pub fn error(&self, fp: u64, e: LoadError<RunError>) -> RunError {
        e.into_error(|source| RunError::Io {
            context: format!("reading {}", self.path_for(fp).display()),
            source,
        })
    }

    /// Persists `tables` under `fp` with an atomic, fsynced write,
    /// replacing any previous (possibly corrupt) copy.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] on filesystem errors.
    pub fn save(&self, fp: u64, experiment: &str, tables: &[Table]) -> Result<(), RunError> {
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
            .map_err(|source| RunError::Io {
                context: format!("writing {}", self.path_for(fp).display()),
                source,
            })
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

    /// `true` for the error a corrupt or mismatched document loads as.
    fn is_corrupt(e: &RunError) -> bool {
        matches!(e, RunError::Io { source, .. } if source.kind() == io::ErrorKind::InvalidData)
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
        assert!(store.load(0xbeef).is_err_and(|e| is_corrupt(&e)));
        // A valid document filed under the wrong name (e.g. a manual
        // rename) must not be served as someone else's result.
        store.save(0xbeef, "fig7", &tables).expect("re-save");
        fs::rename(store.path_for(0xbeef), store.path_for(0xdead)).expect("rename");
        assert!(store.load(0xdead).is_err_and(|e| is_corrupt(&e)));
        // Recovery: overwrite the bad entry.
        store.save(0xdead, "fig7", &tables).expect("overwrite");
        assert!(store.load(0xdead).expect("load").is_some());
        // A document with no `tables` field is not an empty result.
        fs::write(
            store.path_for(0xf00d),
            "{\"version\":1,\"fingerprint\":\"000000000000f00d\"}",
        )
        .expect("write");
        assert!(store.load(0xf00d).is_err_and(|e| is_corrupt(&e)));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn several_tables_round_trip_with_escaped_notes() {
        fn table(title: &str) -> Table {
            let mut t = Table::new(title, &["k", "v"]);
            t.row(vec!["a".into(), "1".into()]);
            t.note("a note with \"quotes\" and a \\ backslash");
            t
        }
        let store = temp_store("tables");
        let tables = vec![table("Fig 7 — «headline», 100%"), table("T1b")];
        store.save(0x7ab1e, "table1", &tables).expect("save");
        let back = store.load(0x7ab1e).expect("load").expect("present");
        assert_eq!(back.len(), 2);
        for (got, want) in back.iter().zip(&tables) {
            assert_eq!(got.title, want.title);
            assert_eq!(got.headers, want.headers);
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.notes, want.notes);
        }
        assert_eq!(back[0].title, "Fig 7 — «headline», 100%");
        assert_eq!(
            back[1].notes,
            vec!["a note with \"quotes\" and a \\ backslash"]
        );
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
                error,
                quarantined: true
            }) if is_corrupt(&error)
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
        assert!(store.load(1).is_err_and(|e| is_corrupt(&e)));
        let _ = fs::remove_dir_all(store.dir());
    }
}
