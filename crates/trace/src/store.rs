//! Content-addressed artifact directories, and the `.llcs` stream store
//! built on one.
//!
//! Every persisted artifact of the reproduction — stream recordings,
//! merged result tables, DAG annotation/replay partials and spec
//! manifests — lives in an [`ArtifactDir`]: one directory of files named
//! by a 64-bit key fingerprint (an `llc_sim::Fold` computed by the
//! caller) and one extension:
//!
//! ```text
//! <dir>/<%016x fingerprint>.<ext>
//! <dir>/quarantine/           corrupt entries, moved — never deleted
//! ```
//!
//! The directory owns the whole file discipline, so each store on top of
//! it is only a typed codec:
//!
//! * writes are crash-safe ([`atomic_write`]): a temporary sibling,
//!   fsynced, renamed into place, parent directory fsynced — a crash
//!   never leaves a half-written artifact where a load would find it;
//! * a load ([`ArtifactDir::load_with`]) is one open: read, decode, touch
//!   the mtime on success (so `repro gc` evicts by last *use*), and on a
//!   decode failure move the file to `quarantine/` and return the typed
//!   error — the caller recomputes and overwrites;
//! * [`ArtifactDir::quarantine`] is the one place that counts
//!   `llc_store_quarantined_total{store=<label>}`;
//! * [`ArtifactDir::entries`] lists the stored files with their size and
//!   mtime, for `disk_stats` and GC.
//!
//! [`StreamStore`] is the `.llcs` codec: a stored file that is
//! truncated, bit-flipped or not a stream at all surfaces as a typed
//! [`TraceError`], never a panic. [`StreamStore::fetch`] also rejects a
//! well-formed file recorded under another hierarchy, and decodes what it
//! accepts into the one replayable type, an owned [`RecordedStream`].

use std::fs;
use std::io::{self, Read};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use llc_telemetry::metrics::{global, Counter};

use crate::error::TraceError;
use crate::stream::RecordedStream;
use crate::view::StreamView;

/// File extension of stored stream recordings.
pub const STREAM_FILE_EXT: &str = "llcs";

/// Name of the per-directory subdirectory that corrupt entries are moved
/// into (instead of being deleted) by [`ArtifactDir::quarantine`].
pub const QUARANTINE_DIR: &str = "quarantine";

/// Fsyncs a directory so renames inside it are durable — a crash right
/// after an `atomic_write` or a quarantine move must not roll the
/// directory entry back. On platforms where directories cannot be
/// opened for syncing this is a no-op.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        fs::File::open(dir)?.sync_all()
    } else {
        Ok(())
    }
}

/// Writes `bytes` to `path` crash-safely: the data lands in a temporary
/// sibling file first, is fsynced, and is renamed over the target, so
/// `path` only ever holds either its previous content or the complete new
/// content; the parent directory is fsynced after the rename so the new
/// entry survives a crash. The temporary name embeds the process id so
/// two processes writing the same target cannot collide mid-write.
///
/// # Errors
///
/// Propagates the underlying filesystem errors; on failure the temporary
/// file is removed on a best-effort basis.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        match path.parent() {
            // A bare file name's parent is `""`: the current directory.
            Some(parent) if parent.as_os_str().is_empty() => sync_dir(Path::new(".")),
            Some(parent) => sync_dir(parent),
            None => Ok(()),
        }
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A failed [`ArtifactDir::load_with`].
#[derive(Debug)]
pub enum LoadError<E> {
    /// The file exists but could not be read; it is left in place.
    Io(io::Error),
    /// The file did not decode. `quarantined` is `true` when this load
    /// moved it to `quarantine/` (`false` if another process moved or
    /// replaced it first, or the move failed).
    Corrupt {
        /// The decoder's typed error.
        error: E,
        /// Whether this load quarantined the file.
        quarantined: bool,
    },
}

impl<E> LoadError<E> {
    /// The typed error, with read failures converted by `io`.
    pub fn into_error(self, io: impl FnOnce(io::Error) -> E) -> E {
        match self {
            LoadError::Io(e) => io(e),
            LoadError::Corrupt { error, .. } => error,
        }
    }
}

/// One file of an [`ArtifactDir`], as listed by [`ArtifactDir::entries`].
#[derive(Debug, Clone)]
pub struct ArtifactEntry {
    /// The fingerprint the file is named by, or `None` when its stem is
    /// not a canonical `%016x` fingerprint (such a file is never loaded).
    pub fp: Option<u64>,
    /// The file's path.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
    /// Its last-use time (loads touch it).
    pub mtime: SystemTime,
}

/// A directory of content-addressed artifacts: `<dir>/<%016x fp>.<ext>`.
///
/// Cloning is cheap (a path and a counter handle); concurrent readers
/// and writers are safe because every write is an atomic rename and
/// every read opens a complete, already-renamed file.
#[derive(Debug, Clone)]
pub struct ArtifactDir {
    dir: PathBuf,
    ext: &'static str,
    label: &'static str,
    quarantined: Arc<Counter>,
}

impl ArtifactDir {
    /// A handle on `dir` without creating it (for directories that only
    /// appear once something is written, such as session checkpoints).
    /// `label` names the store in `llc_store_quarantined_total`.
    pub fn new(dir: impl Into<PathBuf>, ext: &'static str, label: &'static str) -> ArtifactDir {
        ArtifactDir {
            dir: dir.into(),
            ext,
            label,
            quarantined: global().counter_with(
                "llc_store_quarantined_total",
                "Corrupt store entries moved to quarantine/ instead of being deleted",
                &[("store", label)],
            ),
        }
    }

    /// Opens (creating if needed) the directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        ext: &'static str,
        label: &'static str,
    ) -> io::Result<ArtifactDir> {
        let files = ArtifactDir::new(dir, ext, label);
        fs::create_dir_all(&files.dir)?;
        Ok(files)
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store label of the quarantine and eviction counters.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The on-disk path for fingerprint `fp`.
    pub fn path_for(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.{}", self.ext))
    }

    /// `true` if an entry for `fp` is on disk.
    pub fn contains(&self, fp: u64) -> bool {
        self.path_for(fp).exists()
    }

    /// On-disk size of the entry for `fp`, or `None` if absent — a cheap
    /// existence probe for planners (no read, no mtime touch).
    pub fn size_of(&self, fp: u64) -> Option<u64> {
        fs::metadata(self.path_for(fp)).ok().map(|m| m.len())
    }

    fn open_read(&self, fp: u64) -> io::Result<Option<(fs::File, Vec<u8>)>> {
        let mut file = match fs::File::open(self.path_for(fp)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::with_capacity(file.metadata().map_or(0, |m| m.len() as usize));
        file.read_to_end(&mut bytes)?;
        Ok(Some((file, bytes)))
    }

    /// The stored bytes of `fp`, or `Ok(None)` if absent. One open, no
    /// decode and no mtime touch, so inspecting an entry does not count
    /// as using it.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than the file being absent.
    pub fn read(&self, fp: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self.open_read(fp)?.map(|(_, bytes)| bytes))
    }

    /// Loads and decodes the entry for `fp`, or `Ok(None)` if absent.
    ///
    /// One open: the bytes are read and handed to `decode`; on success
    /// the file's mtime is touched so LRU eviction (`repro gc`) ranks
    /// entries by last *use*, not last write (best-effort: a read-only
    /// store is still servable). On a decode failure the file is moved
    /// to `quarantine/` and the typed error returned, so the caller can
    /// recompute and overwrite.
    ///
    /// # Errors
    ///
    /// [`LoadError::Io`] for read failures, [`LoadError::Corrupt`] for
    /// decode failures.
    pub fn load_with<T, E>(
        &self,
        fp: u64,
        decode: impl FnOnce(Vec<u8>) -> Result<T, E>,
    ) -> Result<Option<T>, LoadError<E>> {
        let Some((file, bytes)) = self.open_read(fp).map_err(LoadError::Io)? else {
            return Ok(None);
        };
        match decode(bytes) {
            Ok(value) => {
                let _ = file.set_modified(SystemTime::now());
                Ok(Some(value))
            }
            Err(error) => Err(LoadError::Corrupt {
                error,
                quarantined: matches!(self.quarantine(fp), Ok(Some(_))),
            }),
        }
    }

    /// Persists `bytes` under `fp` with an atomic, fsynced write,
    /// replacing any previous (possibly corrupt) copy.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, fp: u64, bytes: &[u8]) -> io::Result<()> {
        atomic_write(&self.path_for(fp), bytes)
    }

    /// Moves the (presumed corrupt) entry for `fp` into `quarantine/`.
    /// See [`ArtifactDir::quarantine_path`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the entry vanishing.
    pub fn quarantine(&self, fp: u64) -> io::Result<Option<PathBuf>> {
        self.quarantine_path(&self.path_for(fp))
    }

    /// Moves `path` (a file of this directory) into its `quarantine/`
    /// subdirectory with a durable rename and counts it in
    /// `llc_store_quarantined_total{store=<label>}`, returning the
    /// quarantined path. Corrupt entries leave the serving path at once
    /// but stay on disk for inspection. A missing source is `Ok(None)` —
    /// another process may have quarantined or overwritten it first. An
    /// existing quarantined copy of the same name is replaced.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the source vanishing.
    pub fn quarantine_path(&self, path: &Path) -> io::Result<Option<PathBuf>> {
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
        if !path.exists() {
            return Ok(None);
        }
        let qdir = self.dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir)?;
        let dest = qdir.join(file_name);
        match fs::rename(path, &dest) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        // Both directory entries changed: the source lost a name, the
        // quarantine gained one. Sync both so neither rolls back.
        sync_dir(&qdir)?;
        sync_dir(&self.dir)?;
        self.quarantined.inc();
        Ok(Some(dest))
    }

    /// Every stored file with this directory's extension (temporary
    /// files of in-flight writes and `quarantine/` are excluded).
    ///
    /// # Errors
    ///
    /// Propagates directory-walk errors; a missing directory is empty.
    pub fn entries(&self) -> io::Result<Vec<ArtifactEntry>> {
        let listing = match fs::read_dir(&self.dir) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        for entry in listing {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != self.ext) {
                continue;
            }
            let meta = entry.metadata()?;
            let fp = path.file_stem().and_then(|s| s.to_str()).and_then(|stem| {
                u64::from_str_radix(stem, 16)
                    .ok()
                    .filter(|fp| format!("{fp:016x}") == stem)
            });
            entries.push(ArtifactEntry {
                fp,
                path,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(entries)
    }

    /// Counts the stored files and their total size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk errors.
    pub fn disk_stats(&self) -> io::Result<(u64, u64)> {
        let entries = self.entries()?;
        Ok((entries.len() as u64, entries.iter().map(|e| e.bytes).sum()))
    }
}

/// A directory of content-addressed `.llcs` stream recordings: the
/// stream codec over an [`ArtifactDir`] (which it derefs to for paths,
/// quarantine and disk statistics).
#[derive(Debug, Clone)]
pub struct StreamStore {
    files: ArtifactDir,
}

impl Deref for StreamStore {
    type Target = ArtifactDir;

    fn deref(&self) -> &ArtifactDir {
        &self.files
    }
}

impl StreamStore {
    /// Opens (creating if needed) the stream store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<StreamStore> {
        Ok(StreamStore {
            files: ArtifactDir::open(dir, STREAM_FILE_EXT, "streams")?,
        })
    }

    /// The structural validity check of a stored recording: the
    /// [`StreamView`] validation every load applies.
    pub fn decode(bytes: Vec<u8>) -> Result<StreamView, TraceError> {
        StreamView::new(bytes.into())
    }

    /// Loads the recording stored under `fp`, recorded under the
    /// hierarchy whose fingerprint is `config_fp`, as an owned
    /// [`RecordedStream`], or `Ok(None)` if there is none. The one load
    /// path of `llc_sharing`'s `StreamCache`: the file is validated,
    /// its embedded hierarchy fingerprint checked and the records decoded
    /// once, all inside [`ArtifactDir::load_with`], so any failure moves
    /// the file to `quarantine/`.
    ///
    /// # Errors
    ///
    /// [`LoadError::Corrupt`] with the typed [`TraceError`] when the
    /// stored file does not validate or answers for another hierarchy
    /// ([`TraceError::FingerprintMismatch`]); [`LoadError::Io`] when it
    /// cannot be read.
    pub fn fetch(
        &self,
        fp: u64,
        config_fp: u64,
    ) -> Result<Option<RecordedStream>, LoadError<TraceError>> {
        self.files.load_with(fp, |bytes| {
            let stream = StreamStore::decode(bytes)?.to_owned_stream()?;
            if stream.fingerprint != config_fp {
                return Err(TraceError::FingerprintMismatch {
                    found: stream.fingerprint,
                    expected: config_fp,
                });
            }
            Ok(stream)
        })
    }

    /// Loads and validates the recording stored under `fp` as a
    /// [`StreamView`], or `Ok(None)` if there is none.
    ///
    /// # Errors
    ///
    /// A file that exists but does not validate is a typed
    /// [`TraceError`] (and has been moved to `quarantine/`), so callers
    /// can distinguish "never recorded" (`Ok(None)`) from "stored copy
    /// is bad".
    pub fn load_view(&self, fp: u64) -> Result<Option<StreamView>, TraceError> {
        self.files
            .load_with(fp, StreamStore::decode)
            .map_err(|e| e.into_error(TraceError::Io))
    }

    /// Persists `stream` under `fp` with an atomic, fsynced write,
    /// replacing any previous (possibly corrupt) copy.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors and filesystem errors as [`TraceError`].
    pub fn save(&self, fp: u64, stream: &RecordedStream) -> Result<(), TraceError> {
        self.files
            .write(fp, &stream.to_vec()?)
            .map_err(TraceError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::{AccessKind, BlockAddr, CoreId, Pc};

    fn sample(n: usize) -> RecordedStream {
        let mut s = RecordedStream {
            fingerprint: 42,
            instructions: 10,
            ..Default::default()
        };
        for i in 0..n {
            s.blocks.push(BlockAddr::new(i as u64));
            s.cores.push(CoreId::new(i % 2));
            s.pcs.push(Pc::new(0x100 + i as u64));
            s.kinds.push(AccessKind::Read);
            s.instr_deltas.push(1);
        }
        s
    }

    /// The owned stream stored under `fp` (recorded under hierarchy 42,
    /// the fingerprint of every [`sample`]).
    fn load(store: &StreamStore, fp: u64) -> Result<Option<RecordedStream>, TraceError> {
        store
            .fetch(fp, 42)
            .map_err(|e| e.into_error(TraceError::Io))
    }

    fn temp_store(tag: &str) -> StreamStore {
        let dir = std::env::temp_dir().join(format!("llcs-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StreamStore::open(&dir).expect("open store")
    }

    #[test]
    fn save_load_round_trips() {
        let store = temp_store("roundtrip");
        let s = sample(20);
        assert!(load(&store, 7).expect("empty load").is_none());
        assert!(!store.contains(7));
        store.save(7, &s).expect("save");
        assert!(store.contains(7));
        assert_eq!(
            store.size_of(7),
            Some(s.to_vec().expect("encode").len() as u64)
        );
        let back = load(&store, 7).expect("load").expect("present");
        assert_eq!(back, s);
        let (files, bytes) = store.disk_stats().expect("stats");
        assert_eq!(files, 1);
        assert_eq!(bytes, s.to_vec().expect("encode").len() as u64);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_file_is_a_typed_error_and_overwritable() {
        let store = temp_store("corrupt");
        let s = sample(12);
        store.save(9, &s).expect("save");
        // Truncate the stored file mid-record.
        let path = store.path_for(9);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(
            store.load_view(9),
            Err(TraceError::Truncated { .. })
        ));
        // Garbage that is not a stream at all (long enough to pass the
        // header read, so the magic check is what rejects it).
        fs::write(&path, vec![b'X'; 256]).expect("garbage");
        assert!(matches!(
            store.load_view(9),
            Err(TraceError::BadMagic { .. })
        ));
        // The recovery path: re-save over the bad copy and load cleanly.
        store.save(9, &s).expect("re-save");
        assert_eq!(load(&store, 9).expect("load").expect("present"), s);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let store = temp_store("atomic");
        store.save(1, &sample(5)).expect("save");
        store.save(1, &sample(8)).expect("overwrite");
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_none_or(|x| x != "llcs"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert_eq!(load(&store, 1).expect("load").expect("present").len(), 8);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantine_preserves_corrupt_entries() {
        let store = temp_store("quarantine");
        let s = sample(10);
        store.save(5, &s).expect("save");
        let path = store.path_for(5);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
        // The failing load itself moves the copy aside.
        assert!(
            matches!(
                store.fetch(5, 42),
                Err(LoadError::Corrupt {
                    error: TraceError::Truncated { .. },
                    quarantined: true
                })
            ),
            "truncated copy must not decode"
        );
        let dest = store
            .dir()
            .join(QUARANTINE_DIR)
            .join(path.file_name().expect("name"));
        assert_eq!(fs::read(&dest).expect("evidence"), bytes[..bytes.len() / 3]);
        // The serving path is clean again: a load is a miss, not an
        // error, and a re-save heals the entry.
        assert!(load(&store, 5).expect("load after quarantine").is_none());
        store.save(5, &s).expect("re-save");
        assert_eq!(load(&store, 5).expect("load").expect("present"), s);
        // Quarantining nothing (or racing another process) is Ok(None);
        // re-quarantining the same fingerprint replaces the old copy.
        assert!(store.quarantine(999).expect("missing fp").is_none());
        fs::write(&path, b"garbage").expect("corrupt again");
        assert!(store.quarantine(5).expect("re-quarantine").is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fetch_quarantines_a_stream_of_another_hierarchy() {
        let store = temp_store("foreign");
        store.save(6, &sample(8)).expect("save");
        // Well formed, so the structural check alone accepts it.
        assert!(store.load_view(6).expect("valid").is_some());
        assert!(matches!(
            store.fetch(6, 43),
            Err(LoadError::Corrupt {
                error: TraceError::FingerprintMismatch {
                    found: 42,
                    expected: 43
                },
                quarantined: true
            })
        ));
        assert!(!store.contains(6), "the foreign copy left the serving path");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantined_entries_do_not_count_as_stored() {
        let store = temp_store("quarantine-stats");
        store.save(1, &sample(4)).expect("save");
        fs::write(store.path_for(1), b"junk").expect("corrupt");
        store.quarantine(1).expect("quarantine");
        let (files, bytes) = store.disk_stats().expect("stats");
        assert_eq!((files, bytes), (0, 0), "quarantine/ is outside the store");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fault_plan_write_side_round_trip_ends_in_quarantine() {
        // The write-side analogue of the decoder fault tests: a stored
        // `.llcs` whose bytes were damaged in flight (bit flips and a
        // truncation from a deterministic FaultPlan, as if the disk or a
        // buggy writer corrupted the file after the atomic rename) must
        // surface as a typed error from load, quarantine cleanly, and
        // heal on re-save — for every seed, without a panic.
        use crate::fault::{CorruptingReader, Fault, FaultPlan};
        use std::io::Read;

        let store = temp_store("fault-write");
        let s = sample(64);
        let clean = s.to_vec().expect("encode");
        for seed in 0..40u64 {
            let fp = 0x1000 + seed;
            let plan =
                FaultPlan::random_bit_flips(seed, clean.len() as u64, 4).with(Fault::TruncateAt {
                    offset: clean.len() as u64 * 3 / 4,
                });
            let mut damaged = Vec::new();
            CorruptingReader::new(clean.as_slice(), &plan)
                .read_to_end(&mut damaged)
                .expect("apply plan");
            // Land the damaged bytes through the store's own write
            // discipline, exactly where a load will look for them.
            atomic_write(&store.path_for(fp), &damaged).expect("write damaged");
            // A bit flip that rewrites the declared length can make the
            // truncated bytes self-consistent again, so Ok is possible
            // in principle; what is *required* is no panic, and that
            // every detected corruption quarantines and heals.
            if let Err(e) = store.fetch(fp, 42) {
                assert!(
                    matches!(
                        e,
                        LoadError::Corrupt {
                            quarantined: true,
                            ..
                        }
                    ),
                    "seed {seed}: corrupt entry must move"
                );
                assert!(load(&store, fp).expect("post-quarantine load").is_none());
            }
            store.save(fp, &s).expect("heal");
            assert_eq!(load(&store, fp).expect("load").expect("present"), s);
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn an_evicted_entry_is_a_clean_miss() {
        // GC evicts by deleting the file; the store must then answer a
        // miss (not an error), and quarantining it is a no-op.
        let store = temp_store("remove");
        store.save(3, &sample(4)).expect("save");
        fs::remove_file(store.path_for(3)).expect("evict");
        assert!(load(&store, 3).expect("load").is_none());
        assert!(store.quarantine(3).expect("quarantine").is_none());
        assert_eq!(store.disk_stats().expect("stats"), (0, 0));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn loads_touch_mtimes_and_reads_do_not() {
        let store = temp_store("mtime");
        store.save(4, &sample(6)).expect("save");
        let path = store.path_for(4);
        let old = SystemTime::now() - std::time::Duration::from_secs(86_400);
        let age = || {
            fs::File::options()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_modified(old))
                .expect("age");
        };
        let mtime = || {
            fs::metadata(&path)
                .and_then(|m| m.modified())
                .expect("mtime")
        };
        age();
        assert!(store.read(4).expect("read").is_some());
        let entry = store.entries().expect("entries").pop().expect("one");
        assert_eq!((entry.fp, entry.mtime), (Some(4), old));
        assert_eq!(mtime(), old, "reading is not using");
        assert!(store.load_view(4).expect("load").is_some());
        assert!(mtime() > old, "a load counts as a use");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entries_name_only_canonical_fingerprints() {
        let store = temp_store("names");
        store.save(0xab, &sample(2)).expect("save");
        for stray in ["ab.llcs", "00000000000000AB.llcs", "junk.llcs"] {
            fs::write(store.dir().join(stray), b"x").expect("stray");
        }
        fs::write(store.dir().join("ignored.txt"), b"x").expect("other ext");
        let mut fps: Vec<_> = store
            .entries()
            .expect("entries")
            .iter()
            .map(|e| e.fp)
            .collect();
        fps.sort();
        assert_eq!(fps, [None, None, None, Some(0xab)]);
        let _ = fs::remove_dir_all(store.dir());
    }
}
