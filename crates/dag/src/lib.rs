//! Content-addressed artifact DAG for incremental experiment
//! recompilation.
//!
//! A `JobSpec` fingerprint is all-or-nothing: tweak one policy parameter
//! and the monolithic key misses, so the daemon re-records the stream,
//! rebuilds shard indexes, re-runs the oracle pre-passes and replays
//! every policy from scratch. This crate keys each intermediate artifact
//! by a fingerprint of its *own* inputs instead, turning the pipeline
//! into a small build graph:
//!
//! ```text
//! stream(workload × cores × scale × hierarchy)        .llcs  (StreamStore)
//!   ├─ index(stream, sets, shards)                    memory (shard registry)
//!   ├─ annotations(stream, window)                    .llca  (DagStore)
//!   │    └─ replay(stream, policy descriptor)         .llcr  (DagStore)
//!   └─ replay(stream, policy descriptor)              .llcr  (DagStore)
//!        └─ table(spec)                               .json  (ResultStore)
//! ```
//!
//! The crate owns the *generic* pieces — node kinds, fingerprint
//! derivations, replay descriptors, plan types and the persistent
//! [`DagStore`] for annotation/replay partials and per-spec manifests.
//! The experiment-aware planner (which knows what each `ExperimentId`
//! replays) lives in `llc-sharing`; the daemon wiring (plan before
//! admission, `/plan` route, `repro explain`) lives in `llc-serve`.
//!
//! Every node key is an [`llc_sim::Fold`] — the one fingerprint scheme
//! of the workspace, re-exported here with [`fnv1a64`] — seeded per node
//! kind. Persistence is the stores' one primitive: each of the three
//! directories is an [`llc_trace::ArtifactDir`], which gives crash-safe
//! writes, an mtime touch on every load so `repro gc` evicts DAG
//! partials least-recently-*used* first, and corrupt files moved to
//! `quarantine/` (never deleted) and transparently recomputed. The
//! formats add a trailing FNV checksum plus an embedded fingerprint so
//! corruption is detected on load.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod desc;
pub mod fingerprint;
pub mod node;
pub mod store;

pub use desc::{ReplayDesc, ReplayWrap};
pub use fingerprint::{annotations_fp, index_fp, replay_fp};
pub use llc_sim::{fnv1a64, Fold};
pub use node::{NodeKind, Plan, PlanNode};
pub use store::{
    decode_annotations, decode_manifest, decode_replay, encode_annotations, encode_manifest,
    encode_replay, register_metrics, AnnotationsData, DagStatsSnapshot, DagStore, Manifest,
    RunResult, ANN_FILE_EXT, MANIFEST_FILE_EXT, REPLAY_FILE_EXT,
};
