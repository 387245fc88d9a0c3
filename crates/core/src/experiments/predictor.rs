//! Predictor experiments: `fig9` (achievable accuracy), `fig10`
//! (end-to-end gain recovery) and `table3` (hardware budget sweep).

use llc_dag::ReplayDesc;
use llc_policies::{PolicyKind, ProtectMode};
use llc_predictors::{PredictorKind, TableConfig};

use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::report::{f3, mean, pct, Table};
use crate::runner::oracle_window;

/// The predictor designs `fig10` drives the protection wrap with, in
/// column order.
pub(crate) const FIG10_DESIGNS: [PredictorKind; 5] = [
    PredictorKind::Address,
    PredictorKind::Pc,
    PredictorKind::Tournament,
    PredictorKind::Region,
    PredictorKind::PcPhase,
];

/// The predictor designs `fig9` studies, in table order.
pub const FIG9_DESIGNS: [PredictorKind; 6] = [
    PredictorKind::Address,
    PredictorKind::Pc,
    PredictorKind::Tournament,
    PredictorKind::Region,
    PredictorKind::PcPhase,
    PredictorKind::NeverShared,
];

/// The predictor designs `table3` sweeps, in table order.
pub(crate) const TABLE3_DESIGNS: [PredictorKind; 2] = [PredictorKind::Address, PredictorKind::Pc];

/// The table budgets `table3` sweeps, in column order.
pub(crate) const TABLE3_BUDGETS: [(&str, TableConfig); 3] = [
    (
        "512e/2b",
        TableConfig {
            entries: 512,
            assoc: 4,
            counter_bits: 2,
            init_on_shared: 2,
            tag_bits: 10,
        },
    ),
    ("4096e/3b", TableConfig::realistic()),
    (
        "32768e/3b",
        TableConfig {
            entries: 32768,
            assoc: 4,
            counter_bits: 3,
            init_on_shared: 5,
            tag_bits: 10,
        },
    ),
];

/// Fig. 9: the paper's predictability study — what accuracy can
/// fill-time, history-based sharing predictors achieve?
pub(crate) fn fig9(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let keys = FIG9_DESIGNS.map(|design| (design, TableConfig::realistic()));
    let matrices = per_app_try(&ctx.apps, |app| ctx.predictor_studies(app, &cfg, &keys))?;
    let mut tables = Vec::new();
    for (d, design) in FIG9_DESIGNS.into_iter().enumerate() {
        let mut t = Table::new(
            format!(
                "Fig. 9 — {design} fill-time sharing predictor ({} KB LLC, LRU)",
                cfg.llc.capacity_bytes >> 10
            ),
            &[
                "app",
                "shared rate",
                "accuracy",
                "precision",
                "recall",
                "MCC",
                "coverage",
            ],
        );
        for (app, m) in ctx.apps.iter().zip(&matrices) {
            let m = &m[d];
            t.row(vec![
                app.label().to_string(),
                pct(m.shared_rate()),
                pct(m.accuracy()),
                pct(m.precision()),
                pct(m.recall()),
                f3(m.mcc()),
                pct(m.coverage()),
            ]);
        }
        t.note("Predicted at fill time with fill-time table state; trained at eviction with the generation outcome.");
        if design == PredictorKind::NeverShared {
            t.note("NeverShared calibrates accuracy: it scores 1 - shared-rate with zero usefulness (MCC 0).");
        }
        tables.push(t);
    }
    Ok(tables)
}

/// Fig. 10: drive the protection mechanism from the realistic predictors
/// and compare against the oracle — how much of the oracle's gain
/// survives?
pub(crate) fn fig10(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let mut t = Table::new(
        format!(
            "Fig. 10 — End-to-end: predictor-driven wrapper vs oracle ({} KB LLC, base LRU)",
            cfg.llc.capacity_bytes >> 10
        ),
        &[
            "app",
            "oracle gain",
            "Addr gain",
            "PC gain",
            "Addr+PC gain",
            "Region gain",
            "PC+Phase gain",
        ],
    );
    let rows: Vec<Vec<f64>> = per_app_try(&ctx.apps, |app| {
        let lru = ctx
            .replay_cached(app, &cfg, &ReplayDesc::plain(PolicyKind::Lru))?
            .llc
            .misses();
        let red = |m: u64| 1.0 - m as f64 / lru.max(1) as f64;
        let oracle = ctx.replay_cached(
            app,
            &cfg,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
        )?;
        let mut vals = vec![red(oracle.llc.misses())];
        for design in FIG10_DESIGNS {
            let r =
                ctx.replay_cached(app, &cfg, &ReplayDesc::predicted(PolicyKind::Lru, design))?;
            vals.push(red(r.llc.misses()));
        }
        Ok(vals)
    })?;
    for (app, vals) in ctx.apps.iter().zip(&rows) {
        let mut cells = vec![app.label().to_string()];
        cells.extend(vals.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    let mut mrow = vec!["MEAN".to_string()];
    for i in 0..6 {
        mrow.push(pct(mean(rows.iter().map(|r| r[i]))));
    }
    t.row(mrow);
    t.note("gain = 1 - misses/misses(LRU). The gap between column 1 and columns 2-4 is the paper's negative result;");
    t.note("Region and PC+Phase are this reproduction's extensions testing the paper's closing conjecture.");
    Ok(vec![t])
}

/// Table 3: predictor accuracy as a function of the hardware budget.
pub(crate) fn table3(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let keys = table3_keys();
    let matrices = per_app_try(&ctx.apps, |app| ctx.predictor_studies(app, &cfg, &keys))?;
    let mut tables = Vec::new();
    for (d, design) in TABLE3_DESIGNS.into_iter().enumerate() {
        let mut headers: Vec<String> = vec!["app".into()];
        for (name, cfg_t) in &TABLE3_BUDGETS {
            headers.push(format!("{name} ({}KB) acc/MCC", cfg_t.budget_bits() / 8192));
        }
        let mut t = Table::new(
            format!(
                "Table 3 — {design} predictor budget sweep ({} KB LLC, LRU)",
                cfg.llc.capacity_bytes >> 10
            ),
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        for (app, m) in ctx.apps.iter().zip(&matrices) {
            let mut cells = vec![app.label().to_string()];
            let n = TABLE3_BUDGETS.len();
            for m in &m[d * n..(d + 1) * n] {
                cells.push(format!("{}/{}", pct(m.accuracy()), f3(m.mcc())));
            }
            t.row(cells);
        }
        t.note("Larger tables lift coverage but the MCC ceiling is set by the behaviour, not the budget — the paper's conclusion.");
        tables.push(t);
    }
    Ok(tables)
}

/// `table3`'s studies, design-major: one chunk of budgets per design.
fn table3_keys() -> Vec<(PredictorKind, TableConfig)> {
    TABLE3_DESIGNS
        .into_iter()
        .flat_map(|design| TABLE3_BUDGETS.map(|(_, table)| (design, table)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use llc_predictors::{build_predictor_with, PredictorStudy};
    use llc_trace::App;

    /// Every study `fig9` and `table3` read, once each.
    fn all_keys() -> Vec<(PredictorKind, TableConfig)> {
        let mut keys: Vec<_> = FIG9_DESIGNS
            .map(|design| (design, TableConfig::realistic()))
            .into_iter()
            .chain(table3_keys())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn fused_studies_equal_one_replay_per_study() {
        let ctx = ExperimentCtx::test();
        let cfg = ctx.main_config().expect("config");
        let keys = all_keys();
        for app in [App::Fft, App::Dedup] {
            let stream = ctx.stream(app, &cfg).expect("stream");
            let solo: Vec<_> = keys
                .iter()
                .map(|&(design, table)| {
                    let mut study = PredictorStudy::new(build_predictor_with(design, table));
                    replay(
                        &cfg,
                        &ReplayDesc::plain(PolicyKind::Lru),
                        &stream,
                        None,
                        vec![&mut study],
                    )
                    .expect("replay");
                    study.matrix()
                })
                .collect();
            // A partial hit first (one memoized study), then every key in
            // reverse with a duplicate: misses join one replay, and the
            // answer follows the caller's order.
            let first = ctx
                .predictor_studies(app, &cfg, &keys[3..4])
                .expect("study");
            assert_eq!(first, [solo[3]], "{app}: one-key study");
            let mut asked: Vec<_> = keys.iter().rev().copied().collect();
            asked.push(keys[0]);
            let fused = ctx.predictor_studies(app, &cfg, &asked).expect("studies");
            let mut expected: Vec<_> = solo.iter().rev().copied().collect();
            expected.push(solo[0]);
            assert_eq!(fused, expected, "{app}: fused studies differ");
        }
    }
}
