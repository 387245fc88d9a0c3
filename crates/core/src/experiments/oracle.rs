//! The oracle experiments: `fig7` (headline LRU result), `fig8`
//! (generality over recent policies), `abl1` (pre-pass iterations) and
//! `abl3` (protection-mode variants).

//! All four experiments replay policies over cached reference streams
//! (one recording per app and LLC size), so an oracle run costs a single
//! backward scan plus an LLC-only replay.

use llc_dag::ReplayDesc;
use llc_policies::{PolicyKind, ProtectMode};

use crate::error::RunError;
use crate::experiments::{per_app_try, ExperimentCtx};
use crate::report::{mean, pct, Table};
use crate::runner::oracle_window;

fn miss_reduction(base: u64, improved: u64) -> f64 {
    1.0 - improved as f64 / base.max(1) as f64
}

/// Fig. 7: the abstract's headline — the sharing-aware oracle on LRU
/// removes ~6% of misses at 4 MB and ~10% at 8 MB on average.
pub(crate) fn fig7(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let mut headers: Vec<String> = vec!["app".into()];
    for &cap in &ctx.llc_capacities {
        headers.push(format!("LRU misses @{}KB", cap >> 10));
        headers.push(format!("reduction @{}KB", cap >> 10));
    }
    let mut t = Table::new(
        "Fig. 7 — Sharing-aware oracle on LRU: LLC miss reduction",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let rows: Vec<(String, Vec<(u64, f64)>)> = per_app_try(&ctx.apps, |app| {
        let mut cols = Vec::new();
        for &cap in &ctx.llc_capacities {
            let cfg = ctx.config(cap)?;
            let lru = ctx.replay_cached(app, &cfg, &ReplayDesc::plain(PolicyKind::Lru))?;
            let oracle = ctx.replay_cached(
                app,
                &cfg,
                &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
            )?;
            cols.push((
                lru.llc.misses(),
                miss_reduction(lru.llc.misses(), oracle.llc.misses()),
            ));
        }
        Ok((app.label().to_string(), cols))
    })?;
    for (app, cols) in &rows {
        let mut cells = vec![app.clone()];
        for (m, r) in cols {
            cells.push(m.to_string());
            cells.push(pct(*r));
        }
        t.row(cells);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for i in 0..ctx.llc_capacities.len() {
        mean_row.push("-".into());
        mean_row.push(pct(mean(rows.iter().map(|(_, c)| c[i].1))));
    }
    t.row(mean_row);
    t.note("Paper (abstract): oracle reduces LRU misses by 6% (4 MB) and 10% (8 MB) on average.");
    t.note("Oracle = OracleWrap(LRU), eviction protection, one base-policy pre-pass.");
    Ok(vec![t])
}

/// Fig. 8: the same oracle wrapped around the recent proposals,
/// quantifying how much sharing-awareness each is still missing.
pub(crate) fn fig8(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let bases = [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
    ];
    let mut tables = Vec::new();
    for &cap in &ctx.llc_capacities {
        let cfg = ctx.config(cap)?;
        let mut headers: Vec<String> = vec!["app".into()];
        headers.extend(bases.iter().map(|b| format!("Oracle({})", b.label())));
        let mut t = Table::new(
            format!(
                "Fig. 8 — Oracle miss reduction per base policy ({} KB LLC)",
                cap >> 10
            ),
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let w = oracle_window(&cfg);
        let rows: Vec<Vec<f64>> = per_app_try(&ctx.apps, |app| {
            let mut vals = Vec::with_capacity(bases.len());
            for &base in &bases {
                let plain = ctx.replay_cached(app, &cfg, &ReplayDesc::plain(base))?;
                let oracle = ctx.replay_cached(
                    app,
                    &cfg,
                    &ReplayDesc::oracle(base, ProtectMode::Eviction, w),
                )?;
                vals.push(miss_reduction(plain.llc.misses(), oracle.llc.misses()));
            }
            Ok(vals)
        })?;
        for (app, vals) in ctx.apps.iter().zip(&rows) {
            let mut cells = vec![app.label().to_string()];
            cells.extend(vals.iter().map(|&v| pct(v)));
            t.row(cells);
        }
        let mut mrow = vec!["MEAN".to_string()];
        for i in 0..bases.len() {
            mrow.push(pct(mean(rows.iter().map(|r| r[i]))));
        }
        t.row(mrow);
        t.note(
            "Each column compares a base policy against the same policy with the sharing oracle.",
        );
        tables.push(t);
    }
    Ok(tables)
}

/// Ablation 1: sensitivity of the oracle to its retention horizon (the
/// window within which a cross-core touch counts as "will be shared").
pub(crate) fn abl1(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let lines = cfg.llc.lines();
    let factors: [u64; 3] = [1, 4, 16];
    let mut headers: Vec<String> = vec!["app".into(), "LRU misses".into()];
    headers.extend(factors.iter().map(|f| format!("W={f}x lines")));
    let mut t = Table::new(
        format!(
            "Ablation 1 — oracle retention horizon ({} KB LLC, Oracle(LRU))",
            cfg.llc.capacity_bytes >> 10
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let rows = per_app_try(&ctx.apps, |app| {
        let lru = ctx.replay_cached(app, &cfg, &ReplayDesc::plain(PolicyKind::Lru))?;
        let mut cells = vec![app.label().to_string(), lru.llc.misses().to_string()];
        for f in factors {
            let o = ctx.replay_cached(
                app,
                &cfg,
                &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, f * lines),
            )?;
            cells.push(pct(miss_reduction(lru.llc.misses(), o.llc.misses())));
        }
        Ok(cells)
    })?;
    for r in rows {
        t.row(r);
    }
    t.note("W = horizon in LLC accesses within which a cross-core touch marks a block 'will be shared'. Default is 4x lines.");
    Ok(vec![t])
}

/// Ablation 3: where should the protection act — eviction, insertion or
/// both?
pub(crate) fn abl3(ctx: &ExperimentCtx) -> Result<Vec<Table>, RunError> {
    let cfg = ctx.main_config()?;
    let modes = [
        ProtectMode::Eviction,
        ProtectMode::Insertion,
        ProtectMode::Both,
    ];
    let bases = [PolicyKind::Lru, PolicyKind::Srrip];
    let mut headers: Vec<String> = vec!["app".into()];
    for b in bases {
        for m in ["evict", "insert", "both"] {
            headers.push(format!("{}/{m}", b.label()));
        }
    }
    let mut t = Table::new(
        format!(
            "Ablation 3 — oracle protection mode ({} KB LLC), miss reduction",
            cfg.llc.capacity_bytes >> 10
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let w = oracle_window(&cfg);
    let rows: Vec<Vec<f64>> = per_app_try(&ctx.apps, |app| {
        let mut vals = Vec::new();
        for &base in &bases {
            let plain = ctx.replay_cached(app, &cfg, &ReplayDesc::plain(base))?;
            for &mode in &modes {
                let o = ctx.replay_cached(app, &cfg, &ReplayDesc::oracle(base, mode, w))?;
                vals.push(miss_reduction(plain.llc.misses(), o.llc.misses()));
            }
        }
        Ok(vals)
    })?;
    for (app, vals) in ctx.apps.iter().zip(&rows) {
        let mut cells = vec![app.label().to_string()];
        cells.extend(vals.iter().map(|&v| pct(v)));
        t.row(cells);
    }
    let mut mrow = vec!["MEAN".to_string()];
    for i in 0..bases.len() * modes.len() {
        mrow.push(pct(mean(rows.iter().map(|r| r[i]))));
    }
    t.row(mrow);
    t.note("insert = touch-promote predicted-shared fills; evict = restrict victims to predicted-private lines.");
    Ok(vec![t])
}
