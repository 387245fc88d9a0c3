//! # llc-sharing — the sharing characterization and oracle study
//!
//! The top of the reproduction stack: this crate drives the `llc-sim`
//! hierarchy over `llc-trace` workloads with `llc-policies` replacement
//! and `llc-predictors` predictors, and implements everything the paper
//! *contributes*:
//!
//! * **one replay entry point** — a [`ReplayDesc`] (base policy plus
//!   wrap: bare, oracle, reactive or predictor-driven) in, a
//!   [`RunResult`] out — over a once-recorded LLC reference stream
//!   ([`fn@replay`]), with its full-hierarchy twin ([`simulate`]). Both
//!   build the descriptor's policy and its [`AnnotationFeed`] through one
//!   dispatch, and share the exact offline pre-pass: Belady next-use
//!   chains and per-access oracle sharing outcomes from one scan of the
//!   recording ([`compute_annotations`]);
//! * the **characterization passes** — hit/occupancy decomposition by
//!   sharing class ([`SharingProfile`]), premature shared-victimization
//!   rates ([`VictimizationStats`]), epoch-resolved sharing
//!   ([`EpochSeries`]);
//! * the **experiment index** — every paper-style table and figure as a
//!   runnable [`experiments::ExperimentId`].
//!
//! ## Example
//!
//! ```
//! use llc_policies::{PolicyKind, ProtectMode};
//! use llc_sharing::{oracle_window, record_stream, replay, ReplayDesc, SharingProfile};
//! use llc_sim::HierarchyConfig;
//! use llc_trace::{App, Scale};
//!
//! # fn main() -> Result<(), llc_sharing::RunError> {
//! let cfg = HierarchyConfig::tiny();
//! // Record the policy-independent LLC reference stream once ...
//! let stream = record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Tiny))?;
//! // ... then replay any descriptor over it.
//! let mut profile = SharingProfile::new();
//! let lru = ReplayDesc::plain(PolicyKind::Lru);
//! let result = replay(&cfg, &lru, &stream, None, vec![&mut profile])?;
//! assert!(result.llc.accesses > 0);
//! // bodytrack's shared model makes shared generations matter:
//! assert!(profile.shared_hit_fraction() > 0.0);
//! let oracle = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg));
//! let protected = replay(&cfg, &oracle, &stream, None, vec![])?;
//! assert_eq!(protected.llc.accesses, result.llc.accesses);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod awareness;
pub mod characterize;
pub mod epochs;
pub mod error;
pub mod experiments;
pub mod json;
pub mod memo;
pub mod model;
pub mod online;
pub mod planner;
pub mod replay;
pub mod report;
pub mod results;
pub mod runner;
pub mod suite;

pub use awareness::VictimizationStats;
pub use characterize::{ClassTally, SharingProfile};
pub use epochs::{EpochSeries, EpochStat};
pub use error::RunError;
pub use experiments::predictor::FIG9_DESIGNS;
pub use experiments::{per_app, run_experiment, ExperimentCtx, ExperimentId};
pub use llc_dag::{ReplayDesc, ReplayWrap};
pub use model::LatencyModel;
pub use online::{OnlineCharacterizer, OnlineStats, OnlineTally};
pub use planner::{configs_for, plan_experiment, replay_lineup};
pub use replay::{
    compute_annotations, record_stream, replay, replay_kind, replay_on, AnnotationFeed,
    Annotations, StreamCache, StreamCacheStats, StreamKey, WorkloadId,
};
pub use report::{f2, f3, geomean, mean, pct, Table};
pub use runner::{oracle_window, simulate, simulate_on, RunResult, StreamRecorder};
pub use suite::pool::{busy_helpers, scoped_workers, set_host_thread_override};
pub use suite::{
    run_guarded, run_suite, run_suite_with, ExperimentOutcome, GuardedOutcome, SuiteConfig,
    SuiteReport,
};
