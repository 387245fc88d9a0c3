//! `table1` (machine configuration) and `abl2` (inclusion ablation).

use llc_dag::ReplayDesc;
use llc_policies::{PolicyKind, ProtectMode};
use llc_sim::BLOCK_BYTES;

use crate::characterize::SharingProfile;
use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::replay::{replay, replay_kind, Exec};
use crate::report::{pct, Table};
use crate::runner::{oracle_window, simulate};

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
    let cap = ctx.llc_capacities[0];
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
    let rows = per_app_try(&ctx.apps, |app| {
        let mut result = vec![app.label().to_string()];
        for inclusive in [false, true] {
            // Non-inclusive: LLC-only replay of the cached stream.
            // Inclusive: the stream is policy-dependent, so the measured
            // runs must stay full simulations (simulate falls back).
            let cfg = if inclusive {
                ctx.config_inclusive(cap)?
            } else {
                ctx.config(cap)?
            };
            let mut profile = SharingProfile::new();
            let lru = if inclusive {
                simulate(
                    &cfg,
                    &ReplayDesc::plain(PolicyKind::Lru),
                    &mut || app.workload(ctx.cores, ctx.scale),
                    vec![&mut profile],
                )?
            } else {
                let stream = ctx.stream(app, &cfg)?;
                replay_kind(&cfg, PolicyKind::Lru, &stream, vec![&mut profile])?
            };
            let oracle = if inclusive {
                simulate(
                    &cfg,
                    &ReplayDesc::oracle(
                        PolicyKind::Lru,
                        ProtectMode::Eviction,
                        oracle_window(&cfg),
                    ),
                    &mut || app.workload(ctx.cores, ctx.scale),
                    vec![],
                )?
            } else {
                let stream = ctx.stream(app, &cfg)?;
                replay(
                    &cfg,
                    &ReplayDesc::oracle(
                        PolicyKind::Lru,
                        ProtectMode::Eviction,
                        oracle_window(&cfg),
                    ),
                    &stream,
                    None,
                    Exec::Auto,
                    vec![],
                )?
            };
            let gain = 1.0 - oracle.llc.misses() as f64 / lru.llc.misses().max(1) as f64;
            result.push(pct(profile.shared_hit_fraction()));
            result.push(pct(gain));
        }
        // Reorder: app, sh-NI, sh-incl, gain-NI, gain-incl.
        Ok(vec![
            result[0].clone(),
            result[1].clone(),
            result[3].clone(),
            result[2].clone(),
            result[4].clone(),
        ])
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("NI = non-inclusive (default). The inclusive LLC back-invalidates private copies on eviction.");
    t.note("Oracle gain = 1 - misses(Oracle(LRU)) / misses(LRU).");
    Ok(vec![t])
}
