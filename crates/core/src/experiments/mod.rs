//! The experiment index: one module per table/figure of the paper-style
//! evaluation, all driven through [`run_experiment`].

mod characterization;
mod config;
mod extensions;
mod oracle;
mod phases;
pub(crate) mod policies;
pub(crate) mod predictor;

use std::sync::Arc;

use llc_dag::DagStore;
use llc_sim::{CacheConfig, Fold, HierarchyConfig, Inclusion};
use llc_trace::{App, RecordedStream, Scale};

use crate::error::RunError;
use crate::memo::ReplayMemo;
use crate::replay::{StreamCache, StreamKey, WorkloadId};
use crate::report::Table;

/// Shared parameters of an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Simulated cores (one thread each).
    pub cores: usize,
    /// Private L1 geometry.
    pub l1: CacheConfig,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC capacities (bytes) to evaluate; the paper uses 4 MB and 8 MB.
    pub llc_capacities: Vec<u64>,
    /// Workload scale.
    pub scale: Scale,
    /// Applications to run.
    pub apps: Vec<App>,
    /// Recorded LLC reference streams, shared across every experiment in a
    /// suite run (cloning the ctx shares the cache): each (workload,
    /// private hierarchy) pair is recorded once, then every policy and
    /// every non-inclusive LLC size replays it.
    pub streams: StreamCache,
    /// In-process replay memo, the tier in front of [`dag`](Self::dag):
    /// replay results and the observer products ([`Self::profile`],
    /// [`Self::predictor_studies`]) resolved once per node. Shared like
    /// [`streams`](Self::streams), so it lives as long as one batch
    /// campaign or one daemon job (each job builds a fresh context).
    pub(crate) memo: ReplayMemo,
    /// Optional content-addressed artifact DAG, the memo's persistent
    /// tier: when attached, [`ExperimentCtx::replay_cached`] results and
    /// the fused annotation pre-passes are persisted per (stream,
    /// descriptor) and (stream, window), so near-duplicate specs only
    /// pay for their delta.
    pub dag: Option<DagStore>,
}

impl ExperimentCtx {
    /// The paper's configuration: 8 cores, 32 KB 8-way L1s, 16-way LLC of
    /// 4 MB and 8 MB, medium-scale workloads, all sixteen applications.
    pub fn paper() -> Self {
        ExperimentCtx {
            cores: 8,
            // infallible: fixed power-of-two preset geometry.
            l1: CacheConfig::from_kib(32, 8).expect("valid L1"),
            llc_ways: 16,
            llc_capacities: vec![4 << 20, 8 << 20],
            scale: Scale::Medium,
            apps: App::ALL.to_vec(),
            streams: StreamCache::new(),
            memo: ReplayMemo::default(),
            dag: None,
        }
    }

    /// A proportionally shrunk configuration for quick runs: small-scale
    /// workloads against 1 MB / 2 MB LLCs (footprint-to-capacity pressure
    /// comparable to the paper setup at a fraction of the time).
    pub fn quick() -> Self {
        ExperimentCtx {
            cores: 8,
            // infallible: fixed power-of-two preset geometry.
            l1: CacheConfig::from_kib(16, 4).expect("valid L1"),
            llc_ways: 16,
            llc_capacities: vec![1 << 20, 2 << 20],
            scale: Scale::Small,
            apps: App::ALL.to_vec(),
            streams: StreamCache::new(),
            memo: ReplayMemo::default(),
            dag: None,
        }
    }

    /// A unit-test configuration: tiny workloads, 64 KB / 128 KB LLCs,
    /// four cores, a four-app subset covering the sharing classes.
    pub fn test() -> Self {
        ExperimentCtx {
            cores: 4,
            // infallible: fixed power-of-two preset geometry.
            l1: CacheConfig::from_kib(2, 2).expect("valid L1"),
            llc_ways: 8,
            llc_capacities: vec![64 << 10, 128 << 10],
            scale: Scale::Tiny,
            apps: vec![App::Swaptions, App::Bodytrack, App::Dedup, App::Fft],
            streams: StreamCache::new(),
            memo: ReplayMemo::default(),
            dag: None,
        }
    }

    /// The preset named `name` (`paper`, `quick` or `test`), or `None`
    /// for any other name — the one preset table both `repro` front ends
    /// and the daemon's job specs resolve through.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Self::paper()),
            "quick" => Some(Self::quick()),
            "test" => Some(Self::test()),
            _ => None,
        }
    }

    /// The stable content-address of experiment `id`'s tables under this
    /// context: a fingerprint of the experiment and the resolved context
    /// (thread count, scale, app set, and each LLC capacity's full
    /// hierarchy), stable across process restarts and machines. It names
    /// the document in the result store (see [`crate::results`]) for the
    /// batch runner and the daemon alike.
    pub fn result_fingerprint(&self, id: ExperimentId) -> u64 {
        let mut f = Fold::new(0x4c4c_4353_4a4f_4231); // "LLCSJOB1"
        f.str(id.label())
            .u64(self.cores as u64)
            .str(&self.scale.to_string());
        for app in &self.apps {
            f.str(app.label());
        }
        for &cap in &self.llc_capacities {
            // An invalid geometry cannot be fingerprinted through
            // HierarchyConfig; folding the raw capacity keeps the
            // fingerprint total while the run itself will fail with a
            // typed error.
            f.u64(self.config(cap).map_or(cap, |config| config.fingerprint()));
        }
        f.finish()
    }

    /// The hierarchy for one LLC capacity (non-inclusive by default; see
    /// [`ExperimentCtx::config_inclusive`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Sim`] if `llc_capacity` (user-settable via
    /// [`ExperimentCtx::llc_capacities`]) does not form a valid cache
    /// geometry with [`llc_ways`](ExperimentCtx::llc_ways).
    pub fn config(&self, llc_capacity: u64) -> Result<HierarchyConfig, RunError> {
        Ok(HierarchyConfig {
            cores: self.cores,
            l1: self.l1,
            l2: None,
            llc: CacheConfig::new(llc_capacity, self.llc_ways)?,
            inclusion: Inclusion::NonInclusive,
        })
    }

    /// Same hierarchy with an inclusive LLC (the `abl2` ablation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExperimentCtx::config`].
    pub fn config_inclusive(&self, llc_capacity: u64) -> Result<HierarchyConfig, RunError> {
        Ok(HierarchyConfig {
            inclusion: Inclusion::Inclusive,
            ..self.config(llc_capacity)?
        })
    }

    /// The primary (smallest) LLC configuration.
    ///
    /// # Errors
    ///
    /// Fails if [`llc_capacities`](ExperimentCtx::llc_capacities) is empty
    /// or its first entry is not a valid geometry.
    pub fn main_config(&self) -> Result<HierarchyConfig, RunError> {
        let cap = *self.llc_capacities.first().ok_or_else(|| {
            RunError::Sim(llc_sim::SimError::from(llc_sim::ConfigError::new(
                "ExperimentCtx.llc_capacities is empty",
            )))
        })?;
        self.config(cap)
    }

    /// Builds `app`'s workload under this context.
    pub fn workload(&self, app: App) -> llc_trace::Workload {
        app.workload(self.cores, self.scale)
    }

    /// The [`StreamKey`] `app` resolves to under `config` — the identity
    /// a stream node and its recording are fingerprinted by, computable
    /// without recording.
    pub fn stream_key(&self, app: App, config: &HierarchyConfig) -> StreamKey {
        StreamKey {
            workload: WorkloadId::App(app),
            cores: self.cores,
            scale: self.scale,
            config: *config,
        }
    }

    /// The recorded LLC reference stream of `app` under `config`, from the
    /// shared [`StreamCache`] (recorded on first use, replay-ready after).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::replay::record_stream`] errors.
    pub fn stream(
        &self,
        app: App,
        config: &HierarchyConfig,
    ) -> Result<Arc<RecordedStream>, RunError> {
        self.streams
            .get_or_record(self.stream_key(app, config), || self.workload(app))
    }
}

/// Runs `f` once per app and returns the results in app order, fanned
/// out through [`pool::map`](crate::suite::pool::map): `--jobs` bounds
/// concurrent experiments, and their apps run on the caller plus helper
/// threads from one process-wide count, at most twice the host's
/// hardware threads minus one. Workloads are rebuilt
/// inside each closure, so nothing non-`Send` crosses threads.
///
/// A panicking app is re-raised on the calling thread (with the original
/// payload) so the suite runner's `catch_unwind` isolation sees it, after
/// every helper has joined.
pub fn per_app<T, F>(apps: &[App], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(App) -> T + Sync,
{
    crate::suite::pool::map(apps.len(), |i| f(apps[i]))
}

/// Fallible [`per_app`]: runs one `Result`-returning closure per app and
/// collects into a single `Result`, failing with the first error in app
/// order.
pub fn per_app_try<T, F>(apps: &[App], f: F) -> Result<Vec<T>, RunError>
where
    T: Send,
    F: Fn(App) -> Result<T, RunError> + Sync,
{
    per_app(apps, f).into_iter().collect()
}

macro_rules! experiments {
    ($( $variant:ident => ($label:literal, $desc:literal, $runner:path) ),+ $(,)?) => {
        /// Identifier of one reproducible table/figure.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ExperimentId {
            $(
                #[doc = $desc]
                $variant,
            )+
        }

        impl ExperimentId {
            /// Every experiment, in report order.
            pub const ALL: [ExperimentId; 20] = [ $(ExperimentId::$variant),+ ];

            /// The experiment's short id (`fig1`, `table2`, `abl3`, …).
            pub fn label(self) -> &'static str {
                match self { $(ExperimentId::$variant => $label),+ }
            }

            /// One-line description.
            pub fn description(self) -> &'static str {
                match self { $(ExperimentId::$variant => $desc),+ }
            }

            /// Parses a short id (case-insensitive).
            pub fn parse(s: &str) -> Option<ExperimentId> {
                let s = s.to_ascii_lowercase();
                $( if s == $label { return Some(ExperimentId::$variant); } )+
                None
            }
        }

        /// Runs one experiment, returning its rendered tables.
        ///
        /// # Errors
        ///
        /// Propagates the first [`RunError`] any app run produced.
        pub fn run_experiment(id: ExperimentId, ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
            match id { $(ExperimentId::$variant => $runner(ctx)),+ }
        }
    };
}

experiments! {
    Table1 => ("table1", "Simulated machine configuration", config::table1),
    Table2 => ("table2", "Workload characteristics under LRU", characterization::table2),
    Fig1 => ("fig1", "LLC hit decomposition: shared vs private generations", characterization::fig1),
    Fig2 => ("fig2", "Generation population and occupancy decomposition", characterization::fig2),
    Fig3 => ("fig3", "Sharing-degree distribution of shared generations", characterization::fig3),
    Fig4 => ("fig4", "Read-only vs read-write decomposition of shared hits", characterization::fig4),
    Fig5 => ("fig5", "Replacement policies vs Belady's OPT (misses normalized to LRU)", policies::fig5),
    Fig6 => ("fig6", "Sharing-awareness: premature shared-block victimization rates", policies::fig6),
    Fig7 => ("fig7", "Sharing-aware oracle on LRU: miss reduction (the headline result)", oracle::fig7),
    Fig8 => ("fig8", "Sharing-aware oracle on recent policies", oracle::fig8),
    Fig9 => ("fig9", "Fill-time sharing predictability: address vs PC history predictors", predictor::fig9),
    Fig10 => ("fig10", "Predictor-driven wrapper vs the oracle: end-to-end gain recovery", predictor::fig10),
    Fig11 => ("fig11", "Epoch-resolved shared-hit fraction for phase-structured apps", phases::fig11),
    Fig12 => ("fig12", "Extension: modelled performance impact of the oracle", extensions::fig12),
    Table3 => ("table3", "Predictor hardware budget sweep", predictor::table3),
    Abl1 => ("abl1", "Ablation: oracle pre-pass iteration stability", oracle::abl1),
    Abl2 => ("abl2", "Ablation: inclusive vs non-inclusive LLC", config::abl2),
    Abl3 => ("abl3", "Ablation: oracle protection mode (eviction/insertion/both)", oracle::abl3),
    Abl4 => ("abl4", "Extension: reactive vs predicted vs oracle protection ladder", extensions::abl4),
    Abl5 => ("abl5", "Extension: multi-programmed mixes (no cross-program sharing)", extensions::abl5),
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parse_round_trip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.label()), Some(id));
        }
        assert_eq!(ExperimentId::parse("FIG7"), Some(ExperimentId::Fig7));
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn contexts_validate() {
        for ctx in [
            ExperimentCtx::paper(),
            ExperimentCtx::quick(),
            ExperimentCtx::test(),
        ] {
            for &cap in &ctx.llc_capacities {
                ctx.config(cap)
                    .expect("valid config")
                    .validate()
                    .expect("valid hierarchy");
                ctx.config_inclusive(cap)
                    .expect("valid config")
                    .validate()
                    .expect("valid hierarchy");
            }
            ctx.main_config().expect("valid main config");
        }
    }

    #[test]
    fn bad_capacities_are_typed_errors_not_panics() {
        let mut ctx = ExperimentCtx::test();
        ctx.llc_capacities = vec![12345]; // not a power-of-two geometry
        assert!(matches!(ctx.config(12345), Err(RunError::Sim(_))));
        assert!(matches!(ctx.main_config(), Err(RunError::Sim(_))));
        ctx.llc_capacities.clear();
        assert!(matches!(ctx.main_config(), Err(RunError::Sim(_))));
    }

    #[test]
    fn empty_capacities_never_panic_any_experiment() {
        let mut ctx = ExperimentCtx::test();
        ctx.llc_capacities.clear();
        for id in ExperimentId::ALL {
            crate::planner::configs_for(id, &ctx);
            match run_experiment(id, &ctx) {
                Ok(_) | Err(RunError::Sim(_)) => {}
                Err(e) => panic!("{}: unexpected error {e}", id.label()),
            }
        }
    }

    #[test]
    fn per_app_preserves_order() {
        use llc_trace::App;
        let apps = [App::Fft, App::Swim, App::Dedup];
        let labels = per_app(&apps, |a| a.label().to_string());
        assert_eq!(labels, vec!["fft", "swim", "dedup"]);
    }
}
