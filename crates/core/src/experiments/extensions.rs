//! Extension experiments beyond the paper's evaluation: `abl4` (the
//! prediction-requirement ladder), `abl5` (multi-programmed contrast) and
//! `fig12` (first-order performance impact).

use llc_dag::ReplayDesc;
use llc_policies::{PolicyKind, ProtectMode};
use llc_predictors::PredictorKind;
use llc_trace::{App, Multiprogram};

use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::model::LatencyModel;
use crate::replay::{replay, replay_kind, StreamKey, WorkloadId};
use crate::report::f3;
use crate::report::{mean, pct, Table};
use crate::runner::oracle_window;

fn miss_reduction(base: u64, improved: u64) -> f64 {
    1.0 - improved as f64 / base.max(1) as f64
}

/// Ablation 4: how much of the oracle's gain actually *requires*
/// prediction? The ladder: base LRU → reactive protection (directory
/// knowledge only, no prediction) → best realistic predictor → oracle.
pub(crate) fn abl4(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let mut t = Table::new(
        format!(
            "Ablation 4 — reactive vs predicted vs oracle protection ({} KB LLC, base LRU)",
            cfg.llc.capacity_bytes >> 10
        ),
        &[
            "app",
            "reactive gain",
            "PC+Phase gain",
            "oracle gain",
            "reactive/oracle",
        ],
    );
    let rows: Vec<Vec<f64>> = per_app_try(&ctx.apps, |app| {
        let misses = |desc: &ReplayDesc| -> Result<u64, RunError> {
            Ok(ctx.replay_cached(app, &cfg, desc)?.llc.misses())
        };
        let lru = misses(&ReplayDesc::plain(PolicyKind::Lru))?;
        let reactive = misses(&ReplayDesc::reactive(PolicyKind::Lru))?;
        let predicted = misses(&ReplayDesc::predicted(
            PolicyKind::Lru,
            PredictorKind::PcPhase,
        ))?;
        let oracle = misses(&ReplayDesc::oracle(
            PolicyKind::Lru,
            ProtectMode::Eviction,
            oracle_window(&cfg),
        ))?;
        let rg = miss_reduction(lru, reactive);
        let og = miss_reduction(lru, oracle);
        Ok(vec![
            rg,
            miss_reduction(lru, predicted),
            og,
            if og > 0.0 { rg / og } else { 0.0 },
        ])
    })?;
    for (app, vals) in ctx.apps.iter().zip(&rows) {
        t.row(vec![
            app.label().to_string(),
            pct(vals[0]),
            pct(vals[1]),
            pct(vals[2]),
            if vals[2] > 0.0 {
                pct(vals[3])
            } else {
                "-".into()
            },
        ]);
    }
    let mut mrow = vec!["MEAN".to_string()];
    for i in 0..3 {
        mrow.push(pct(mean(rows.iter().map(|r| r[i]))));
    }
    mrow.push("-".into());
    t.row(mrow);
    t.note("reactive = protect lines already shared in the current generation (pure directory state, buildable today).");
    t.note("The reactive-to-oracle gap is the gain that genuinely requires fill-time prediction.");
    Ok(vec![t])
}

/// The program mixes of `abl5`: four 2-thread programs each.
const MIXES: [(&str, [App; 4]); 3] = [
    (
        "mix-shared",
        [App::Bodytrack, App::Ferret, App::Water, App::Barnes],
    ),
    (
        "mix-blend",
        [App::Canneal, App::Swim, App::Fft, App::Streamcluster],
    ),
    (
        "mix-private",
        [App::Swaptions, App::Blackscholes, App::Swim, App::Equake],
    ),
];

/// Ablation 5: multi-programmed mixes. With programs in disjoint address
/// windows, cross-program sharing is zero; the oracle's gain collapses
/// toward whatever little intra-program (2-thread) sharing remains —
/// supporting the paper's framing that multi-programmed-oriented policies
/// address a different problem.
pub(crate) fn abl5(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cap = ctx.main_config()?.llc.capacity_bytes;
    let cfg = {
        let mut c = ctx.config(cap)?;
        c.cores = 8; // four programs x two threads
        c
    };
    let mut t = Table::new(
        format!(
            "Ablation 5 — multi-programmed mixes ({} KB LLC, base LRU)",
            cap >> 10
        ),
        &["mix", "LRU misses", "oracle gain", "shared-hit%"],
    );
    // The mixes fan out like every other experiment's apps; rows keep
    // mix order, and so does the first error.
    let rows = crate::suite::pool::map(MIXES.len(), |i| -> Result<Vec<String>, RunError> {
        let (name, apps) = MIXES[i];
        let key = StreamKey {
            workload: WorkloadId::Mix(name),
            cores: cfg.cores,
            scale: ctx.scale,
            config: cfg,
        };
        let stream = ctx
            .streams
            .get_or_record(key, || Multiprogram::new(&apps, 2, ctx.scale))?;
        // Not memoized: mix streams are read by this experiment only.
        // For the same reason the oracle replay computes its annotations
        // and drops them: a kept scan would never be read again.
        let mut profile = crate::characterize::SharingProfile::new();
        let lru = replay_kind(&cfg, PolicyKind::Lru, &stream, vec![&mut profile])?;
        let oracle = replay(
            &cfg,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
            &stream,
            None,
            vec![],
        )?;
        Ok(vec![
            name.to_string(),
            lru.llc.misses().to_string(),
            pct(miss_reduction(lru.llc.misses(), oracle.llc.misses())),
            pct(profile.shared_hit_fraction()),
        ])
    });
    for row in rows {
        t.row(row?);
    }
    t.note("Each mix = four programs x two threads, disjoint 1 TiB address windows (no cross-program sharing).");
    t.note("Compare the oracle gains here against fig7's 8-thread single-program runs.");
    Ok(vec![t])
}

/// Fig. 12 (extension): translate the oracle's miss reductions into
/// first-order performance using the fixed-latency model.
pub(crate) fn fig12(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let model = LatencyModel::typical();
    let mut tables = Vec::new();
    for &cap in &ctx.llc_capacities {
        let cfg = ctx.config(cap)?;
        let mut t = Table::new(
            format!(
                "Fig. 12 — modelled performance of Oracle(LRU) ({} KB LLC)",
                cap >> 10
            ),
            &["app", "LRU AMAT", "Oracle AMAT", "speedup"],
        );
        let rows: Vec<(String, f64, f64, f64)> = per_app_try(&ctx.apps, |app| {
            let lru = ctx.replay_cached(app, &cfg, &ReplayDesc::plain(PolicyKind::Lru))?;
            let oracle = ctx.replay_cached(
                app,
                &cfg,
                &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
            )?;
            Ok((
                app.label().to_string(),
                model.amat(&lru),
                model.amat(&oracle),
                model.speedup(&lru, &oracle),
            ))
        })?;
        for (app, a, b, sp) in &rows {
            t.row(vec![app.clone(), f3(*a), f3(*b), f3(*sp)]);
        }
        t.row(vec![
            "MEAN".into(),
            "-".into(),
            "-".into(),
            f3(mean(rows.iter().map(|r| r.3))),
        ]);
        t.note("Fixed-latency model (3/30/220 cycles), IPC-1 core, no overlap: conservative comparisons only.");
        tables.push(t);
    }
    Ok(tables)
}
