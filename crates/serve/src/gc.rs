//! Store garbage collection: bound the persistent store's disk
//! footprint by evicting least-recently-used entries, quarantining (not
//! deleting) anything that fails verification along the way.
//!
//! The store is content-addressed, so eviction is always *safe* — a
//! re-submitted spec whose artifacts were evicted simply recomputes and
//! re-stores them. GC therefore only trades recompute time for disk
//! space, never correctness, which is what makes an automatic background
//! sweep (`repro serve --store-cap-mb`) acceptable.
//!
//! The sweep is one loop over the [`Store`] layout's directories
//! (`Store::dirs`). Recency comes from file mtimes, which every load
//! touches; eviction removes the oldest entries first until the combined
//! `streams/` + `results/` + `dag/` footprint fits the cap, then fsyncs
//! each affected directory so the new directory contents are durable.
//! `--verify` checks every entry with the decoder that serves it (the
//! `StreamView` validator for streams) from a plain read that leaves its
//! mtime alone, so verifying never reorders eviction. Corrupt entries
//! are moved into `quarantine/` (bytes preserved for post-mortems) and
//! do not count against the cap. `--verify` also collects orphans:
//! annotation and replay partials referenced by no manifest (their
//! producing job's manifest was evicted, or the job never finished).
//! Session checkpoints are verified and quarantined but never evicted.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::sync::LazyLock;

use llc_sharing::json::Value;
use llc_telemetry::metrics::{global, Counter};
use llc_trace::sync_dir;

use crate::store::Store;
use crate::{io_err, ServeError};

/// `llc_store_gc_evicted_total{store=…}` for one store label.
fn evicted(store: &'static str) -> Arc<Counter> {
    global().counter_with(
        "llc_store_gc_evicted_total",
        "Store entries evicted by LRU garbage collection",
        &[("store", store)],
    )
}

/// The unlabelled `llc_store_gc_*` counters.
struct GcMetrics {
    evicted_bytes: Arc<Counter>,
    orphaned_dag: Arc<Counter>,
}

static METRICS: LazyLock<GcMetrics> = LazyLock::new(|| GcMetrics {
    evicted_bytes: global().counter(
        "llc_store_gc_evicted_bytes_total",
        "Bytes reclaimed by LRU store garbage collection",
    ),
    orphaned_dag: global().counter(
        "llc_store_gc_orphaned_total",
        "DAG partials collected because no manifest references them",
    ),
});

/// Forces registration of the GC metric series (all-zero until the
/// first sweep) so scrapes see them from daemon start-up.
pub(crate) fn register_metrics() {
    LazyLock::force(&METRICS);
    for store in ["streams", "results", "dag"] {
        evicted(store);
    }
}

/// What one GC sweep did, reported by `repro gc` and logged by the
/// daemon's background sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined across all store directories.
    pub scanned_files: u64,
    /// Their combined size before the sweep.
    pub scanned_bytes: u64,
    /// Entries removed to fit the byte cap.
    pub evicted_files: u64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
    /// Corrupt entries moved to `quarantine/` by verification.
    pub quarantined_files: u64,
    /// DAG partials removed because no manifest references them.
    pub orphaned_files: u64,
    /// Combined store size after the sweep.
    pub remaining_bytes: u64,
}

impl GcReport {
    /// The report's JSON wire form.
    pub fn to_json(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        Value::object(vec![
            ("scanned_files", num(self.scanned_files)),
            ("scanned_bytes", num(self.scanned_bytes)),
            ("evicted_files", num(self.evicted_files)),
            ("evicted_bytes", num(self.evicted_bytes)),
            ("quarantined_files", num(self.quarantined_files)),
            ("orphaned_files", num(self.orphaned_files)),
            ("remaining_bytes", num(self.remaining_bytes)),
        ])
    }
}

/// Sweeps the store rooted at `root` (the daemon's `--store` directory):
/// optionally verifies every entry (corrupt ones are quarantined, orphan
/// DAG partials collected), then evicts least-recently-used entries
/// until the combined footprint of the content-addressed directories
/// fits under `cap_bytes`.
///
/// Safe to run against a live daemon's store: writes are atomic renames
/// and a concurrently-evicted entry is re-recorded on next use.
///
/// # Errors
///
/// Propagates filesystem errors; per-entry verification failures are
/// handled (quarantined), not raised.
pub fn sweep(root: &Path, cap_bytes: Option<u64>, verify: bool) -> Result<GcReport, ServeError> {
    let store = Store::open(root)?;
    let dirs = store.dirs();
    let mut report = GcReport::default();
    let mut touched = dirs.map(|_| false);
    // Eviction candidates: (directory index, entry).
    let mut entries = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        // A cap-only sweep never looks at session checkpoints.
        if !dir.evictable && !verify {
            continue;
        }
        let listed = dir
            .files
            .entries()
            .map_err(|e| io_err(format!("scanning {}", dir.files.dir().display()), e))?;
        for entry in listed {
            report.scanned_files += 1;
            report.scanned_bytes += entry.bytes;
            if verify && !fs::read(&entry.path).is_ok_and(|raw| (dir.verify)(raw, entry.fp)) {
                // Quarantine failures are not fatal to the sweep: a
                // vanished entry is simply no longer ours to manage.
                if let Ok(Some(_)) = dir.files.quarantine_path(&entry.path) {
                    report.quarantined_files += 1;
                }
                continue;
            }
            if dir.evictable {
                entries.push((i, entry));
            }
        }
    }

    if verify {
        // Orphan collection: a DAG partial that no (surviving) manifest
        // references can never be resolved by a plan. Partials are cheap
        // to recompute, so collect them outright rather than
        // quarantining.
        let live = store
            .dag
            .referenced()
            .map_err(|e| io_err("reading DAG manifests", e))?;
        entries.retain(|(i, entry)| {
            let Some(kind) = dirs[*i].partial else {
                return true;
            };
            if entry.fp.is_some_and(|fp| live.contains(&(kind, fp))) {
                return true;
            }
            // A concurrently-vanished orphan was collected for us.
            if fs::remove_file(&entry.path).is_ok() {
                report.orphaned_files += 1;
                METRICS.orphaned_dag.inc();
                touched[*i] = true;
            }
            false
        });
    }

    let mut remaining: u64 = entries.iter().map(|(_, e)| e.bytes).sum();
    if let Some(cap) = cap_bytes {
        entries.sort_by_key(|(_, e)| e.mtime);
        for (i, entry) in &entries {
            if remaining <= cap {
                break;
            }
            match fs::remove_file(&entry.path) {
                Ok(()) => {}
                // Concurrently re-recorded/removed: skip, it is in use.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err(format!("evicting {}", entry.path.display()), e)),
            }
            remaining = remaining.saturating_sub(entry.bytes);
            report.evicted_files += 1;
            report.evicted_bytes += entry.bytes;
            evicted(dirs[*i].files.label()).inc();
            touched[*i] = true;
        }
        METRICS.evicted_bytes.add(report.evicted_bytes);
    }
    // Make the deletions durable before reporting them reclaimed.
    for (dir, _) in dirs.iter().zip(touched).filter(|(_, t)| *t) {
        let path = dir.files.dir();
        sync_dir(path).map_err(|e| io_err(format!("syncing {} after GC", path.display()), e))?;
    }
    report.remaining_bytes = remaining;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResultStore;
    use filetime_shim::set_mtime;
    use llc_dag::NodeKind;
    use llc_sharing::Table;
    use llc_trace::StreamStore;
    use std::path::PathBuf;

    /// Sets a file's mtime without external crates: `File::set_modified`.
    mod filetime_shim {
        use std::fs;
        use std::path::Path;
        use std::time::{Duration, SystemTime};

        pub fn set_mtime(path: &Path, age: Duration) {
            let f = fs::File::options()
                .write(true)
                .open(path)
                .expect("open for utimes");
            f.set_modified(SystemTime::now() - age).expect("set mtime");
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llcs-gc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_tables() -> Vec<Table> {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        vec![t]
    }

    fn seed_results(root: &Path, fingerprints: &[u64]) -> ResultStore {
        let store = ResultStore::open(root.join("results")).expect("open results");
        for &fp in fingerprints {
            store.save(fp, "fig7", &sample_tables()).expect("save");
        }
        store
    }

    #[test]
    fn evicts_oldest_first_until_under_cap() {
        let root = temp_root("lru");
        let store = seed_results(&root, &[1, 2, 3]);
        let per_file = fs::metadata(store.path_for(1)).expect("meta").len();
        // Ages: 1 oldest, 3 newest.
        for (fp, days) in [(1u64, 3u64), (2, 2), (3, 1)] {
            set_mtime(
                &store.path_for(fp),
                std::time::Duration::from_secs(days * 86_400),
            );
        }
        let report = sweep(&root, Some(per_file * 2), false).expect("sweep");
        assert_eq!(report.scanned_files, 3);
        assert_eq!(report.evicted_files, 1);
        assert_eq!(report.evicted_bytes, per_file);
        assert_eq!(report.remaining_bytes, per_file * 2);
        assert!(!store.contains(1), "the oldest entry goes first");
        assert!(store.contains(2) && store.contains(3));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cap_of_zero_empties_the_store_and_missing_store_is_empty() {
        let root = temp_root("zero");
        let store = seed_results(&root, &[7, 8]);
        let report = sweep(&root, Some(0), false).expect("sweep");
        assert_eq!(report.evicted_files, 2);
        assert_eq!(report.remaining_bytes, 0);
        assert!(!store.contains(7) && !store.contains(8));
        // Sweeping a store that never existed is a no-op, not an error.
        let empty = sweep(&temp_root("nonexistent"), Some(0), true).expect("sweep");
        assert_eq!(empty, GcReport::default());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_quarantines_corrupt_entries_without_counting_them_evicted() {
        let root = temp_root("verify");
        let store = seed_results(&root, &[10, 11]);
        fs::write(store.path_for(10), "{ not json").expect("corrupt");
        let report = sweep(&root, None, true).expect("sweep");
        assert_eq!(report.quarantined_files, 1);
        assert_eq!(report.evicted_files, 0, "no cap, no eviction");
        assert!(!store.contains(10));
        let q = root
            .join("results")
            .join(llc_trace::QUARANTINE_DIR)
            .join(format!("{:016x}.json", 10));
        assert_eq!(fs::read_to_string(q).expect("evidence"), "{ not json");
        assert!(store.load(11).expect("load").is_some(), "good entry stays");
        // The quarantined entry no longer counts toward the footprint.
        assert_eq!(
            report.remaining_bytes,
            fs::metadata(store.path_for(11)).expect("meta").len()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_covers_streams_too() {
        let root = temp_root("streams");
        let streams = StreamStore::open(root.join("streams")).expect("open streams");
        // A syntactically-invalid stream entry under a valid name.
        llc_trace::atomic_write(&streams.path_for(0x5), b"definitely not a stream").expect("write");
        // A stray file whose name is not a fingerprint.
        llc_trace::atomic_write(&root.join("streams").join("stray.llcs"), b"junk")
            .expect("write stray");
        let report = sweep(&root, None, true).expect("sweep");
        assert_eq!(report.quarantined_files, 2);
        assert!(!streams.contains(0x5));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_rejects_streams_the_serving_decoder_rejects() {
        // Trailing bytes after a well-formed `.llcs` payload: the owned
        // decoder would stop reading early and accept the file, but the
        // view validator that serves it rejects the arena size, so a
        // verify sweep must quarantine it.
        let root = temp_root("padded-stream");
        let streams = StreamStore::open(root.join("streams")).expect("open streams");
        let mut bytes = llc_trace::RecordedStream::default()
            .to_vec()
            .expect("encode");
        bytes.extend_from_slice(&[0; 4]);
        llc_trace::atomic_write(&streams.path_for(0x7), &bytes).expect("write");
        assert!(streams.load_view(0x7).is_err(), "the daemon rejects it");
        llc_trace::atomic_write(&streams.path_for(0x7), &bytes).expect("rewrite");

        let report = sweep(&root, None, true).expect("sweep");
        assert_eq!(report.quarantined_files, 1, "{report:?}");
        assert!(!streams.contains(0x7));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_leaves_recency_alone() {
        use llc_dag::{DagStore, Manifest, RunResult};
        let root = temp_root("recency");
        let results = seed_results(&root, &[1, 2]);
        let streams = StreamStore::open(root.join("streams")).expect("open streams");
        let stream = llc_trace::RecordedStream::default();
        streams.save(3, &stream).expect("save stream");
        let dag = DagStore::open(root.join("dag")).expect("open dag");
        dag.save_replay(4, &RunResult::default())
            .expect("save replay");
        dag.save_manifest(
            5,
            &Manifest {
                nodes: vec![(NodeKind::Replay, 4)],
            },
        )
        .expect("save manifest");
        // Ages in days; the oldest is result 1, the newest the stream.
        let aged = [
            (results.path_for(1), 5u64),
            (dag.manifests().path_for(5), 4),
            (results.path_for(2), 3),
            (dag.replays().path_for(4), 2),
            (streams.path_for(3), 1),
        ];
        for (path, days) in &aged {
            set_mtime(path, std::time::Duration::from_secs(days * 86_400));
        }
        let mtimes = || -> Vec<_> {
            aged.iter()
                .map(|(p, _)| fs::metadata(p).and_then(|m| m.modified()).expect("mtime"))
                .collect()
        };
        let before = mtimes();
        let report = sweep(&root, None, true).expect("verify");
        assert_eq!(
            (report.quarantined_files, report.orphaned_files),
            (0, 0),
            "{report:?}"
        );
        assert_eq!(mtimes(), before, "verifying is not using");

        // A capped sweep now evicts strictly oldest-first: keeping the
        // newest two entries evicts the three oldest.
        let keep: u64 = aged[3..]
            .iter()
            .map(|(p, _)| fs::metadata(p).expect("meta").len())
            .sum();
        let report = sweep(&root, Some(keep), false).expect("capped");
        assert_eq!(report.evicted_files, 3, "{report:?}");
        for (i, (path, _)) in aged.iter().enumerate() {
            assert_eq!(path.exists(), i >= 3, "{}", path.display());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_collects_unreferenced_dag_partials_and_quarantines_corrupt_ones() {
        use llc_dag::{AnnotationsData, DagStore, Manifest, RunResult};
        let root = temp_root("dag");
        let dag = DagStore::open(root.join("dag")).expect("open dag");
        let ann = AnnotationsData {
            window: 64,
            next_use: vec![1, u64::MAX],
            shared_soon: vec![true, false],
        };
        let rec = RunResult {
            policy: "LRU".into(),
            instructions: 10,
            trace_accesses: 2,
            ..RunResult::default()
        };
        // Referenced pair (kept), orphaned pair (collected), corrupt
        // replay under a valid name (quarantined before the orphan pass).
        dag.save_annotations(0xA1, &ann).expect("save ann");
        dag.save_replay(0xB1, &rec).expect("save replay");
        dag.save_annotations(0xA2, &ann).expect("save orphan ann");
        dag.save_replay(0xB2, &rec).expect("save orphan replay");
        llc_trace::atomic_write(&dag.replays().path_for(0xB3), b"not a replay").expect("corrupt");
        dag.save_manifest(
            0xF1,
            &Manifest {
                nodes: vec![(NodeKind::Annotations, 0xA1), (NodeKind::Replay, 0xB1)],
            },
        )
        .expect("save manifest");

        let report = sweep(&root, None, true).expect("sweep");
        assert_eq!(report.quarantined_files, 1, "{report:?}");
        assert_eq!(report.orphaned_files, 2, "{report:?}");
        assert!(dag.load_annotations(0xA1).is_some(), "referenced ann stays");
        assert!(dag.load_replay(0xB1).is_some(), "referenced replay stays");
        assert!(!dag.ann().contains(0xA2), "orphan ann collected");
        assert!(!dag.replays().contains(0xB2), "orphan replay collected");
        assert!(!dag.replays().contains(0xB3), "corrupt replay quarantined");

        // A second verify sweep is a fixed point.
        let again = sweep(&root, None, true).expect("sweep again");
        assert_eq!(again.quarantined_files, 0);
        assert_eq!(again.orphaned_files, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_walks_session_checkpoints() {
        let root = temp_root("sessions");
        // A real checkpoint written by a drain, plus a corrupt one.
        let table = crate::sessions::SessionTable::new(
            &root,
            4,
            10_000,
            std::time::Duration::from_secs(600),
        );
        table.create("{\"cores\":2,\"window\":16}", false);
        table.batch("0", "{\"accesses\":[[0,1,64,\"R\"],[1,2,64,\"W\"]]}", false);
        table.checkpoint_all();
        let sessions_dir = root.join(crate::sessions::SESSIONS_DIR);
        fs::write(sessions_dir.join("1.json"), "{ not a checkpoint").expect("corrupt");

        let report = sweep(&root, None, true).expect("sweep");
        assert_eq!(report.quarantined_files, 1, "{report:?}");
        assert!(
            sessions_dir.join("0.json").exists(),
            "valid checkpoint survives"
        );
        assert!(!sessions_dir.join("1.json").exists());
        assert!(sessions_dir
            .join(llc_trace::QUARANTINE_DIR)
            .join("1.json")
            .exists());

        // A cap-only sweep never touches session checkpoints.
        let evict_all = sweep(&root, Some(0), false).expect("sweep");
        assert_eq!(evict_all.evicted_files, 0, "{evict_all:?}");
        assert!(sessions_dir.join("0.json").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn report_renders_as_json() {
        let report = GcReport {
            scanned_files: 4,
            scanned_bytes: 400,
            evicted_files: 1,
            evicted_bytes: 100,
            quarantined_files: 1,
            orphaned_files: 0,
            remaining_bytes: 200,
        };
        let v = report.to_json();
        assert_eq!(
            v.field("evicted_files").and_then(Value::as_u64),
            Some(1),
            "{}",
            v.render()
        );
        assert_eq!(
            v.field("remaining_bytes").and_then(Value::as_u64),
            Some(200)
        );
    }
}
