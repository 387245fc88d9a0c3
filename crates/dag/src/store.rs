//! The persistent DAG store: annotation partials, per-policy replay
//! partials and per-spec node manifests under `<store>/dag/`.
//!
//! ```text
//! dag/ann/<fp>.llca        fused next-use/shared-soon pre-pass output
//! dag/replays/<fp>.llcr    one policy's LlcStats + private counters
//! dag/manifests/<fp>.llcm  (kind, fp) list of a completed spec's nodes
//! dag/*/quarantine/        corrupt artifacts, moved — never deleted
//! ```
//!
//! Each directory is an [`ArtifactDir`], the same primitive under the
//! `.llcs` stream store and the result store, so all three formats get
//! its discipline: crash-safe writes, an mtime touch on every load (so
//! LRU GC eviction tracks *use*, not creation), and
//! quarantine-on-corruption so a damaged partial costs one recompute,
//! never an error or lost evidence. The formats add an embedded
//! fingerprint checked against the filename and a trailing FNV-1a
//! checksum over the payload. `repro gc` walks these directories with
//! the same byte-cap LRU sweep it applies to streams and results.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use llc_sim::{fnv1a64, LlcStats, PrivateCacheStats};
use llc_telemetry::metrics::{global, Counter};
use llc_trace::{ArtifactDir, LoadError};

use crate::node::NodeKind;

/// File extension of annotation partials.
pub const ANN_FILE_EXT: &str = "llca";
/// File extension of replay partials.
pub const REPLAY_FILE_EXT: &str = "llcr";
/// File extension of spec manifests.
pub const MANIFEST_FILE_EXT: &str = "llcm";

const ANN_MAGIC: &[u8; 8] = b"LLCDANN1";
const REPLAY_MAGIC: &[u8; 8] = b"LLCDRPL1";
const MANIFEST_MAGIC: &[u8; 8] = b"LLCDMAN1";

/// Global node-level counters, labeled per [`NodeKind`]. Resolved once,
/// bumped with relaxed atomics on the hot path.
struct DagMetrics {
    hits: [Arc<Counter>; 5],
    misses: [Arc<Counter>; 5],
    replayed: Arc<Counter>,
    disk_errors: Arc<Counter>,
}

static METRICS: LazyLock<DagMetrics> = LazyLock::new(|| {
    let per_kind = |name: &str, help: &str| {
        NodeKind::ALL.map(|kind| global().counter_with(name, help, &[("kind", kind.label())]))
    };
    DagMetrics {
        hits: per_kind(
            "llc_dag_node_hits_total",
            "DAG nodes resolved from a cached artifact, by node kind",
        ),
        misses: per_kind(
            "llc_dag_node_misses_total",
            "DAG nodes that had to be computed, by node kind",
        ),
        replayed: global().counter(
            "llc_dag_replayed_policies_total",
            "Per-policy replays actually executed (DAG replay-node misses that ran)",
        ),
        disk_errors: global().counter(
            "llc_dag_disk_errors_total",
            "DAG artifact load/persist failures recovered by recomputing",
        ),
    }
});

/// Forces registration of every DAG metric series so a fresh daemon's
/// first `/metrics` scrape already shows them at zero.
pub fn register_metrics() {
    LazyLock::force(&METRICS);
}

/// Per-instance counters of one [`DagStore`] (shared by clones). The
/// global `llc_dag_*` series aggregate every store in the process; these
/// stay attributable to one store, which is what tests assert against.
#[derive(Debug, Default)]
struct DagStats {
    hits: [AtomicU64; 5],
    misses: [AtomicU64; 5],
    replayed: AtomicU64,
    quarantined: AtomicU64,
    disk_errors: AtomicU64,
}

/// A snapshot of one store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagStatsSnapshot {
    /// Node hits by [`NodeKind::ordinal`].
    pub hits: [u64; 5],
    /// Node misses by [`NodeKind::ordinal`].
    pub misses: [u64; 5],
    /// Per-policy replays actually executed.
    pub replayed: u64,
    /// Corrupt artifacts moved to quarantine.
    pub quarantined: u64,
    /// Load/persist failures shrugged off by recomputing.
    pub disk_errors: u64,
}

impl DagStatsSnapshot {
    /// Hits of one node kind.
    pub fn hits_of(&self, kind: NodeKind) -> u64 {
        self.hits[kind.ordinal()]
    }

    /// Misses of one node kind.
    pub fn misses_of(&self, kind: NodeKind) -> u64 {
        self.misses[kind.ordinal()]
    }
}

/// The decoded payload of an annotation node: both vectors of the fused
/// backward scan, plus the window they were computed under.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnotationsData {
    /// The retention window the shared-soon vector was computed with.
    pub window: u64,
    /// Per-access next-use stream positions (`u64::MAX` = never again).
    pub next_use: Vec<u64>,
    /// Per-access "another core touches this block within the window".
    pub shared_soon: Vec<bool>,
}

/// Aggregate result of one simulation run — and the decoded payload of
/// a replay node, which stores exactly these counters. `llc-sharing`
/// re-exports it as `llc_sharing::RunResult`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Display label of the policy that ran.
    pub policy: String,
    /// LLC counters.
    pub llc: LlcStats,
    /// Aggregated private L1 counters.
    pub l1: PrivateCacheStats,
    /// Aggregated private L2 counters (zero without an L2).
    pub l2: PrivateCacheStats,
    /// Instructions represented by the trace.
    pub instructions: u64,
    /// Trace records processed.
    pub trace_accesses: u64,
}

impl RunResult {
    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.misses() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1 misses per kilo-instruction (aggregated over cores).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l1.misses() as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// The node list of one completed spec: which artifacts its result was
/// assembled from. GC's verify pass treats partials referenced by no
/// manifest as orphans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// `(kind, fingerprint)` per node, in pipeline order.
    pub nodes: Vec<(NodeKind, u64)>,
}

/// A handle on the on-disk DAG store. Cheap to clone; clones share the
/// per-instance counters.
#[derive(Debug, Clone)]
pub struct DagStore {
    root: PathBuf,
    ann: ArtifactDir,
    replays: ArtifactDir,
    manifests: ArtifactDir,
    stats: Arc<DagStats>,
}

/// Byte-level writer for the little-endian artifact formats.
struct Enc(Vec<u8>);

impl Enc {
    fn new(magic: &[u8; 8]) -> Enc {
        Enc(magic.to_vec())
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
    /// Appends the payload checksum (everything after the magic) and
    /// returns the finished buffer.
    fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.0[8..]);
        self.u64(sum);
        self.0
    }
}

/// Byte-level reader mirroring [`Enc`]; every method is total (returns
/// `Err` on truncation, never panics), so corrupt files decode into
/// typed failures that the store turns into quarantine + recompute.
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    /// Checks magic, the trailing checksum and the embedded fingerprint
    /// (against `expect_fp`, the filename stem), returning the rest of
    /// the payload.
    fn open(raw: &'a [u8], magic: &[u8; 8], expect_fp: u64) -> Result<Dec<'a>, String> {
        if raw.len() < 16 || &raw[..8] != magic {
            return Err("bad magic".into());
        }
        let payload = &raw[8..raw.len() - 8];
        let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a64(payload) != stored {
            return Err("checksum mismatch".into());
        }
        let mut dec = Dec(payload);
        let fp = dec.u64()?;
        if fp != expect_fp {
            return Err(format!(
                "fingerprint mismatch: {fp:016x} != {expect_fp:016x}"
            ));
        }
        Ok(dec)
    }
    fn u64(&mut self) -> Result<u64, String> {
        if self.0.len() < 8 {
            return Err("truncated".into());
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = usize::try_from(self.u64()?).map_err(|_| "length overflow".to_string())?;
        if self.0.len() < len {
            return Err("truncated".into());
        }
        let (head, rest) = self.0.split_at(len);
        self.0 = rest;
        Ok(head)
    }
    fn done(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes".into())
        }
    }
}

/// Encodes an annotation artifact (exposed so GC's verify pass and the
/// tests can decode files without a store handle).
pub fn encode_annotations(fp: u64, data: &AnnotationsData) -> Vec<u8> {
    let mut enc = Enc::new(ANN_MAGIC);
    enc.u64(fp);
    enc.u64(data.window);
    enc.u64(data.next_use.len() as u64);
    for &v in &data.next_use {
        enc.u64(v);
    }
    let mut bits = vec![0u8; data.shared_soon.len().div_ceil(8)];
    for (i, &b) in data.shared_soon.iter().enumerate() {
        if b {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    enc.bytes(&bits);
    enc.finish()
}

/// Decodes an annotation artifact, validating magic, checksum and the
/// embedded fingerprint against `expect_fp` (pass the filename stem).
pub fn decode_annotations(raw: &[u8], expect_fp: u64) -> Result<AnnotationsData, String> {
    let mut dec = Dec::open(raw, ANN_MAGIC, expect_fp)?;
    let window = dec.u64()?;
    let n = usize::try_from(dec.u64()?).map_err(|_| "length overflow".to_string())?;
    if n > raw.len() / 8 {
        return Err("implausible length".into());
    }
    let mut next_use = Vec::with_capacity(n);
    for _ in 0..n {
        next_use.push(dec.u64()?);
    }
    let bits = dec.bytes()?;
    if bits.len() != n.div_ceil(8) {
        return Err("bitset length mismatch".into());
    }
    let shared_soon = (0..n).map(|i| bits[i / 8] & (1 << (i % 8)) != 0).collect();
    dec.done()?;
    Ok(AnnotationsData {
        window,
        next_use,
        shared_soon,
    })
}

/// Encodes a replay artifact.
pub fn encode_replay(fp: u64, rec: &RunResult) -> Vec<u8> {
    let mut enc = Enc::new(REPLAY_MAGIC);
    enc.u64(fp);
    enc.bytes(rec.policy.as_bytes());
    for v in [
        rec.llc.accesses,
        rec.llc.hits,
        rec.llc.fills,
        rec.llc.evictions,
        rec.llc.flushed,
        rec.llc.hits_by_non_filler,
        rec.llc.writes,
    ] {
        enc.u64(v);
    }
    for p in [&rec.l1, &rec.l2] {
        for v in [
            p.accesses,
            p.hits,
            p.evictions,
            p.invalidations,
            p.back_invalidations,
        ] {
            enc.u64(v);
        }
    }
    enc.u64(rec.instructions);
    enc.u64(rec.trace_accesses);
    enc.finish()
}

/// Decodes a replay artifact (see [`decode_annotations`] for the
/// validation contract).
pub fn decode_replay(raw: &[u8], expect_fp: u64) -> Result<RunResult, String> {
    let mut dec = Dec::open(raw, REPLAY_MAGIC, expect_fp)?;
    let policy = String::from_utf8(dec.bytes()?.to_vec()).map_err(|_| "bad label".to_string())?;
    let llc = LlcStats {
        accesses: dec.u64()?,
        hits: dec.u64()?,
        fills: dec.u64()?,
        evictions: dec.u64()?,
        flushed: dec.u64()?,
        hits_by_non_filler: dec.u64()?,
        writes: dec.u64()?,
    };
    let mut private = || -> Result<PrivateCacheStats, String> {
        Ok(PrivateCacheStats {
            accesses: dec.u64()?,
            hits: dec.u64()?,
            evictions: dec.u64()?,
            invalidations: dec.u64()?,
            back_invalidations: dec.u64()?,
        })
    };
    let l1 = private()?;
    let l2 = private()?;
    let instructions = dec.u64()?;
    let trace_accesses = dec.u64()?;
    dec.done()?;
    Ok(RunResult {
        policy,
        llc,
        l1,
        l2,
        instructions,
        trace_accesses,
    })
}

/// Encodes a spec manifest.
pub fn encode_manifest(fp: u64, manifest: &Manifest) -> Vec<u8> {
    let mut enc = Enc::new(MANIFEST_MAGIC);
    enc.u64(fp);
    enc.u64(manifest.nodes.len() as u64);
    for &(kind, node_fp) in &manifest.nodes {
        enc.0.push(kind.code());
        enc.u64(node_fp);
    }
    enc.finish()
}

/// Decodes a spec manifest.
pub fn decode_manifest(raw: &[u8], expect_fp: u64) -> Result<Manifest, String> {
    let mut dec = Dec::open(raw, MANIFEST_MAGIC, expect_fp)?;
    let n = usize::try_from(dec.u64()?).map_err(|_| "length overflow".to_string())?;
    if n > raw.len() {
        return Err("implausible length".into());
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        if dec.0.is_empty() {
            return Err("truncated".into());
        }
        let (code, rest) = dec.0.split_first().expect("non-empty");
        dec.0 = rest;
        let kind = NodeKind::from_code(*code).ok_or_else(|| "unknown node kind".to_string())?;
        nodes.push((kind, dec.u64()?));
    }
    dec.done()?;
    Ok(Manifest { nodes })
}

impl DagStore {
    /// Opens (creating if needed) the DAG store rooted at `root` —
    /// conventionally `<store>/dag` next to `streams/` and `results/`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DagStore> {
        let root = root.into();
        let dir = |sub: &str, ext| ArtifactDir::open(root.join(sub), ext, "dag");
        Ok(DagStore {
            ann: dir("ann", ANN_FILE_EXT)?,
            replays: dir("replays", REPLAY_FILE_EXT)?,
            manifests: dir("manifests", MANIFEST_FILE_EXT)?,
            root,
            stats: Arc::new(DagStats::default()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The annotation partials (`ann/*.llca`).
    pub fn ann(&self) -> &ArtifactDir {
        &self.ann
    }

    /// The replay partials (`replays/*.llcr`).
    pub fn replays(&self) -> &ArtifactDir {
        &self.replays
    }

    /// The spec manifests (`manifests/*.llcm`).
    pub fn manifests(&self) -> &ArtifactDir {
        &self.manifests
    }

    /// A snapshot of this store's counters.
    pub fn stats(&self) -> DagStatsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DagStatsSnapshot {
            hits: [0, 1, 2, 3, 4].map(|i| load(&self.stats.hits[i])),
            misses: [0, 1, 2, 3, 4].map(|i| load(&self.stats.misses[i])),
            replayed: load(&self.stats.replayed),
            quarantined: load(&self.stats.quarantined),
            disk_errors: load(&self.stats.disk_errors),
        }
    }

    /// Records a node served from cache (per-instance + global counters).
    pub fn record_hit(&self, kind: NodeKind) {
        self.stats.hits[kind.ordinal()].fetch_add(1, Ordering::Relaxed);
        METRICS.hits[kind.ordinal()].inc();
    }

    /// Records a node that had to be computed.
    pub fn record_miss(&self, kind: NodeKind) {
        self.stats.misses[kind.ordinal()].fetch_add(1, Ordering::Relaxed);
        METRICS.misses[kind.ordinal()].inc();
    }

    /// Records one per-policy replay actually executed.
    pub fn record_replay_executed(&self) {
        self.stats.replayed.fetch_add(1, Ordering::Relaxed);
        METRICS.replayed.inc();
    }

    /// Loads + decodes an artifact; any failure other than "absent"
    /// counts as a disk error and reports `None` (the caller
    /// recomputes), a corrupt file having been quarantined by the load.
    fn load_checked<T>(
        &self,
        dir: &ArtifactDir,
        fp: u64,
        decode: fn(&[u8], u64) -> Result<T, String>,
    ) -> Option<T> {
        match dir.load_with(fp, |raw| decode(&raw, fp)) {
            Ok(found) => found,
            Err(e) => {
                self.record_disk_error();
                if let LoadError::Corrupt {
                    quarantined: true, ..
                } = e
                {
                    self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Loads the annotation artifact `fp`, or `None` if absent/corrupt.
    pub fn load_annotations(&self, fp: u64) -> Option<AnnotationsData> {
        self.load_checked(&self.ann, fp, decode_annotations)
    }

    /// Persists an annotation artifact (crash-safe).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat a failed persist as a
    /// counter bump, not a run failure.
    pub fn save_annotations(&self, fp: u64, data: &AnnotationsData) -> io::Result<()> {
        self.ann.write(fp, &encode_annotations(fp, data))
    }

    /// Loads the replay artifact `fp`, or `None` if absent/corrupt.
    pub fn load_replay(&self, fp: u64) -> Option<RunResult> {
        self.load_checked(&self.replays, fp, decode_replay)
    }

    /// Persists a replay artifact (crash-safe).
    ///
    /// # Errors
    ///
    /// See [`DagStore::save_annotations`].
    pub fn save_replay(&self, fp: u64, rec: &RunResult) -> io::Result<()> {
        self.replays.write(fp, &encode_replay(fp, rec))
    }

    /// Loads the manifest for spec `fp`, or `None` if absent/corrupt.
    pub fn load_manifest(&self, fp: u64) -> Option<Manifest> {
        self.load_checked(&self.manifests, fp, decode_manifest)
    }

    /// Persists a spec manifest (crash-safe).
    ///
    /// # Errors
    ///
    /// See [`DagStore::save_annotations`].
    pub fn save_manifest(&self, fp: u64, manifest: &Manifest) -> io::Result<()> {
        self.manifests.write(fp, &encode_manifest(fp, manifest))
    }

    /// Records a failed persist (the artifact will be recomputed next
    /// time; nothing else goes wrong).
    pub fn record_disk_error(&self) {
        self.stats.disk_errors.fetch_add(1, Ordering::Relaxed);
        METRICS.disk_errors.inc();
    }

    /// `(files, bytes)` across all three artifact directories.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn disk_stats(&self) -> io::Result<(u64, u64)> {
        let mut total = (0, 0);
        for dir in [&self.ann, &self.replays, &self.manifests] {
            let (files, bytes) = dir.disk_stats()?;
            total = (total.0 + files, total.1 + bytes);
        }
        Ok(total)
    }

    /// Every node referenced by a decodable manifest — the live set of
    /// GC's orphan pass. Manifests are read without touching their
    /// mtimes, so computing it does not count as using them.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn referenced(&self) -> io::Result<HashSet<(NodeKind, u64)>> {
        let mut live = HashSet::new();
        for fp in self.manifests.entries()?.into_iter().filter_map(|e| e.fp) {
            if let Some(manifest) = self
                .manifests
                .read(fp)
                .ok()
                .flatten()
                .and_then(|raw| decode_manifest(&raw, fp).ok())
            {
                live.extend(manifest.nodes);
            }
        }
        Ok(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample_ann() -> AnnotationsData {
        AnnotationsData {
            window: 256,
            next_use: vec![3, u64::MAX, 7, 9],
            shared_soon: vec![true, false, false, true],
        }
    }

    fn sample_replay() -> RunResult {
        RunResult {
            policy: "LRU".into(),
            llc: LlcStats {
                accesses: 100,
                hits: 60,
                fills: 40,
                evictions: 30,
                flushed: 10,
                hits_by_non_filler: 5,
                writes: 20,
            },
            l1: PrivateCacheStats {
                accesses: 1000,
                hits: 900,
                evictions: 80,
                invalidations: 7,
                back_invalidations: 0,
            },
            l2: PrivateCacheStats::default(),
            instructions: 5000,
            trace_accesses: 1200,
        }
    }

    #[test]
    fn codecs_round_trip() {
        let ann = sample_ann();
        assert_eq!(
            decode_annotations(&encode_annotations(9, &ann), 9).expect("decode"),
            ann
        );
        let rec = sample_replay();
        assert_eq!(
            decode_replay(&encode_replay(4, &rec), 4).expect("decode"),
            rec
        );
        let manifest = Manifest {
            nodes: vec![
                (NodeKind::Stream, 1),
                (NodeKind::Annotations, 2),
                (NodeKind::Replay, 3),
                (NodeKind::Table, 4),
            ],
        };
        assert_eq!(
            decode_manifest(&encode_manifest(7, &manifest), 7).expect("decode"),
            manifest
        );
    }

    #[test]
    fn replay_encoding_is_pinned() {
        // `.llcr` files outlive the process that wrote them; a changed
        // layout would turn every stored replay into a checksum miss.
        let raw = encode_replay(4, &sample_replay());
        let hex: String = raw.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4c4c434452504c3104000000000000000300000000000000\
             4c525564000000000000003c000000000000002800000000\
             0000001e000000000000000a000000000000000500000000\
             0000001400000000000000e8030000000000008403000000\
             000000500000000000000007000000000000000000000000\
             000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000008813000000\
             000000b00400000000000044678cdcda0437fc"
        );
    }

    #[test]
    fn decode_rejects_corruption_and_wrong_fp() {
        let raw = encode_annotations(9, &sample_ann());
        assert!(decode_annotations(&raw, 10).is_err(), "wrong fingerprint");
        let mut flipped = raw.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert!(decode_annotations(&flipped, 9).is_err(), "checksum");
        assert!(
            decode_annotations(&raw[..raw.len() - 3], 9).is_err(),
            "truncated"
        );
        assert!(decode_replay(&raw, 9).is_err(), "wrong magic");
    }

    #[test]
    fn referenced_reads_manifests_without_using_them() {
        let dir = std::env::temp_dir().join(format!("llc-dag-live-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DagStore::open(&dir).expect("open");
        let manifest = Manifest {
            nodes: vec![(NodeKind::Annotations, 1), (NodeKind::Replay, 2)],
        };
        store.save_manifest(9, &manifest).expect("save");
        store.save_manifest(10, &manifest).expect("save");
        fs::write(store.manifests().path_for(10), b"junk").expect("corrupt");
        let old = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        let path = store.manifests().path_for(9);
        fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(old))
            .expect("age");
        let live = store.referenced().expect("live set");
        assert_eq!(live, manifest.nodes.into_iter().collect());
        assert_eq!(
            fs::metadata(&path).and_then(|m| m.modified()).ok(),
            Some(old)
        );
        assert!(store.manifests().contains(10), "reading never quarantines");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_round_trips_and_quarantines() {
        let dir = std::env::temp_dir().join(format!("llc-dag-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DagStore::open(&dir).expect("open");

        assert_eq!(store.load_replay(5), None);
        assert_eq!(store.stats().quarantined, 0);
        let rec = sample_replay();
        store.save_replay(5, &rec).expect("save");
        assert_eq!(store.load_replay(5), Some(rec));
        assert!(store.replays().size_of(5).is_some());
        assert_eq!(store.replays().size_of(6), None);

        // Corrupt the file in place: the load quarantines and reports a
        // miss; the original bytes survive under quarantine/.
        fs::write(store.replays().path_for(5), b"garbage").expect("corrupt");
        assert_eq!(store.load_replay(5), None);
        let snap = store.stats();
        assert_eq!(snap.quarantined, 1);
        assert!(snap.disk_errors >= 1);
        assert!(!store.replays().contains(5));
        let quarantine = dir.join("replays").join(llc_trace::QUARANTINE_DIR);
        assert!(fs::read_dir(quarantine).expect("qdir").count() >= 1);

        let ann = sample_ann();
        store.save_annotations(8, &ann).expect("save");
        assert_eq!(store.load_annotations(8), Some(ann));
        let manifest = Manifest {
            nodes: vec![(NodeKind::Replay, 5)],
        };
        store.save_manifest(2, &manifest).expect("save");
        assert_eq!(store.load_manifest(2), Some(manifest));

        // The quarantined replay no longer counts; the annotation and
        // manifest artifacts do.
        let (files, bytes) = store.disk_stats().expect("disk stats");
        assert_eq!(files, 2);
        assert!(bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
