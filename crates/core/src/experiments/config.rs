//! `table1` (machine configuration) and `abl2` (inclusion ablation).

use llc_dag::ReplayDesc;
use llc_policies::{PolicyKind, ProtectMode};
use llc_sim::BLOCK_BYTES;

use crate::characterize::SharingProfile;
use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::report::{pct, Table};
use crate::runner::{oracle_window, simulate, RunResult};

/// Table 1: the simulated machine.
pub(crate) fn table1(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let mut t = Table::new(
        "Table 1 — Simulated machine configuration",
        &["component", "value"],
    );
    t.row(vec![
        "cores".into(),
        format!("{} (one thread per core)", ctx.cores),
    ]);
    t.row(vec!["block size".into(), format!("{} B", BLOCK_BYTES)]);
    t.row(vec![
        "private L1D".into(),
        format!("{} per core, LRU", ctx.l1),
    ]);
    let llcs = ctx
        .llc_capacities
        .iter()
        .map(|c| format!("{} MB", c >> 20).replace("0 MB", &format!("{} KB", c >> 10)))
        .collect::<Vec<_>>()
        .join(" / ");
    t.row(vec![
        "shared LLC".into(),
        format!("{llcs}, {}-way", ctx.llc_ways),
    ]);
    t.row(vec![
        "LLC inclusion".into(),
        "non-inclusive (inclusive mode in abl2)".into(),
    ]);
    t.row(vec![
        "coherence".into(),
        "directory MESI-lite (write-invalidate)".into(),
    ]);
    t.row(vec!["workload scale".into(), ctx.scale.to_string()]);
    t.note("Timing is not modelled; all results are miss-count based, as in the paper.");
    Ok(vec![t])
}

/// Ablation 2: does the non-inclusive simplification change the
/// conclusions? Re-measures the fig1 shared-hit fraction and the fig7
/// oracle gain with an inclusive LLC.
pub(crate) fn abl2(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.main_config()?.llc.capacity_bytes;
    let mut t = Table::new(
        format!(
            "Ablation 2 — inclusive vs non-inclusive LLC ({} KB)",
            cap >> 10
        ),
        &[
            "app",
            "shared-hit% NI",
            "shared-hit% incl",
            "oracle gain NI",
            "oracle gain incl",
        ],
    );
    let gain = |lru: &RunResult, oracle: &RunResult| {
        1.0 - oracle.llc.misses() as f64 / lru.llc.misses().max(1) as f64
    };
    let rows = per_app_try(&ctx.apps, |app| {
        // Non-inclusive: the memoized LRU profile and an LLC-only oracle
        // replay of the cached stream.
        let ni = ctx.config(cap)?;
        let (ni_lru, ni_profile) = ctx.profile(app, cap)?;
        let ni_oracle = ctx.replay_cached(
            app,
            &ni,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&ni)),
        )?;
        // Inclusive: the stream is policy-dependent, so the measured
        // runs must stay full simulations (simulate falls back).
        let incl = ctx.config_inclusive(cap)?;
        let mut incl_profile = SharingProfile::new();
        let incl_lru = simulate(
            &incl,
            &ReplayDesc::plain(PolicyKind::Lru),
            &mut || app.workload(ctx.cores, ctx.scale),
            vec![&mut incl_profile],
        )?;
        let incl_oracle = simulate(
            &incl,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&incl)),
            &mut || app.workload(ctx.cores, ctx.scale),
            vec![],
        )?;
        Ok(vec![
            app.label().to_string(),
            pct(ni_profile.shared_hit_fraction()),
            pct(incl_profile.shared_hit_fraction()),
            pct(gain(&ni_lru, &ni_oracle)),
            pct(gain(&incl_lru, &incl_oracle)),
        ])
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("NI = non-inclusive (default). The inclusive LLC back-invalidates private copies on eviction.");
    t.note("Oracle gain = 1 - misses(Oracle(LRU)) / misses(LRU).");
    Ok(vec![t])
}
