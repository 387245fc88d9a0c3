//! # sharing-aware-llc
//!
//! A full, from-scratch reproduction of *Characterizing multi-threaded
//! applications for designing sharing-aware last-level cache replacement
//! policies* (R. Natarajan and M. Chaudhuri, IISWC 2013) as a Rust
//! workspace:
//!
//! * [`sim`] — the trace-driven CMP cache hierarchy (private L1s,
//!   MESI-lite coherence, shared LLC with per-generation sharing
//!   tracking);
//! * [`trace`] — sixteen synthetic PARSEC / SPLASH-2 / SPEC OMP workload
//!   models built from sharing-pattern primitives;
//! * [`ingest`] — foreign-trace ingestion (ChampSim-style CSV, compact
//!   `LLCB` binary, cachegrind-like logs) into the same recording
//!   pipeline;
//! * [`policies`] — LRU, NRU, Random, the RRIP and DIP families, SHiP,
//!   Belady's OPT, and the paper's generic sharing-aware oracle wrapper;
//! * [`predictors`] — the fill-time sharing predictors (address- and
//!   PC-indexed) and their metrics;
//! * [`sharing`] — the replay entry point (a
//!   [`ReplayDesc`](sharing::ReplayDesc) in, a
//!   [`RunResult`](sharing::RunResult) out), the characterization passes, the exact
//!   oracle/OPT pre-passes, and the experiment index regenerating every
//!   table and figure;
//! * [`serve`] — the job-queue simulation daemon (`repro serve`) with its
//!   persistent content-addressed stream & result store;
//! * [`telemetry`] — process-global metrics (Prometheus text exposition)
//!   and RAII span tracing (Chrome trace-event JSON), wired through the
//!   replay, suite, and serve layers.
//!
//! This facade crate re-exports the workspace and hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! ## Quickstart
//!
//! ```
//! use sharing_aware_llc::prelude::*;
//!
//! // Measure how much of bodytrack's LLC hit volume is served by shared
//! // blocks on a small test machine.
//! let cfg = HierarchyConfig::tiny();
//! let mut profile = SharingProfile::new();
//! simulate(
//!     &cfg,
//!     &ReplayDesc::plain(PolicyKind::Lru),
//!     &mut || App::Bodytrack.workload(cfg.cores, Scale::Tiny),
//!     vec![&mut profile],
//! )
//! .expect("simulation on a synthetic workload cannot fail");
//! assert!(profile.shared_hit_fraction() > 0.1);
//! ```

#![warn(missing_docs)]

pub use llc_ingest as ingest;
pub use llc_policies as policies;
pub use llc_predictors as predictors;
pub use llc_serve as serve;
pub use llc_sharing as sharing;
pub use llc_sim as sim;
pub use llc_telemetry as telemetry;
pub use llc_trace as trace;

/// The most commonly used items across the workspace, in one import.
pub mod prelude {
    pub use llc_policies::{build_policy, OracleWrap, PolicyKind, ProtectMode};
    pub use llc_predictors::{
        build_predictor, ConfusionMatrix, PredictorKind, PredictorStudy, PredictorWrap,
        SharingPredictor, TableConfig,
    };
    pub use llc_sharing::{
        oracle_window, replay, run_experiment, run_suite, run_suite_with, simulate, simulate_on,
        EpochSeries, ExperimentCtx, ExperimentId, ExperimentOutcome, ReplayDesc, RunError,
        RunResult, SharingProfile, SuiteConfig, SuiteReport, Table, VictimizationStats,
    };
    pub use llc_sim::{
        AccessKind, Addr, BlockAddr, CacheConfig, Cmp, CoreId, GenerationEnd, HierarchyConfig,
        Inclusion, LlcObserver, MemAccess, NullObserver, Pc, ReplacementPolicy,
    };
    pub use llc_trace::{App, Scale, SharingClass, Suite, TraceError, TraceSource, Workload};
}
