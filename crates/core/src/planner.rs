//! Experiment-aware DAG planning: maps an [`ExperimentId`] onto the
//! artifact nodes its run would touch and reports, per node, whether
//! the store already holds it.
//!
//! Every experiment whose replays resolve through
//! [`ExperimentCtx::replay_cached`] has a replay lineup: `fig5`, `fig7`,
//! `fig8`, `fig10`, `fig12`, `abl1`, `abl3`, `abl4`, and `abl2`'s
//! non-inclusive oracle. Observed replays — the observer products
//! ([`ExperimentCtx::profile`], [`ExperimentCtx::predictor_studies`]),
//! fig6 and fig11 — run through one in-process path that records each
//! run in the memo and never persists it, and abl5 replays its mixes
//! directly, so those experiments plan stream nodes only. A test runs every experiment against a fresh store and checks
//! that the replay and annotation nodes it saves are exactly the planned
//! ones. A plan is advisory: the run itself re-resolves every
//! node, so a stale plan can never corrupt a result, only mispredict the
//! work.

use llc_dag::{annotations_fp, DagStore, NodeKind, Plan, ReplayDesc};
use llc_policies::{PolicyKind, ProtectMode};
use llc_predictors::PredictorKind;
use llc_sim::{HierarchyConfig, Inclusion};

use crate::experiments::{policies::LINEUP, predictor::FIG10_DESIGNS, ExperimentCtx, ExperimentId};
use crate::runner::oracle_window;

/// The per-policy replay lineup an experiment resolves through
/// [`ExperimentCtx::replay_cached`] under one hierarchy config, with all
/// defaulted windows resolved. `None` means none of its replays under
/// `config` persist: they carry observers, compose custom workloads or
/// run on an inclusive hierarchy.
pub fn replay_lineup(id: ExperimentId, config: &HierarchyConfig) -> Option<Vec<ReplayDesc>> {
    let w = oracle_window(config);
    let lru = ReplayDesc::plain(PolicyKind::Lru);
    let oracle_lru = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, w);
    match id {
        ExperimentId::Fig5 => Some(LINEUP.iter().map(|&k| ReplayDesc::plain(k)).collect()),
        ExperimentId::Fig7 | ExperimentId::Fig12 => Some(vec![lru, oracle_lru]),
        ExperimentId::Fig10 => Some(
            [lru, oracle_lru]
                .into_iter()
                .chain(
                    FIG10_DESIGNS
                        .iter()
                        .map(|&d| ReplayDesc::predicted(PolicyKind::Lru, d)),
                )
                .collect(),
        ),
        ExperimentId::Abl4 => Some(vec![
            lru,
            ReplayDesc::reactive(PolicyKind::Lru),
            ReplayDesc::predicted(PolicyKind::Lru, PredictorKind::PcPhase),
            oracle_lru,
        ]),
        // The inclusive half of abl2 runs full simulations.
        ExperimentId::Abl2 if config.inclusion == Inclusion::NonInclusive => Some(vec![oracle_lru]),
        ExperimentId::Fig8 => {
            let bases = [
                PolicyKind::Lru,
                PolicyKind::Srrip,
                PolicyKind::Drrip,
                PolicyKind::Ship,
            ];
            Some(
                bases
                    .iter()
                    .flat_map(|&b| {
                        [
                            ReplayDesc::plain(b),
                            ReplayDesc::oracle(b, ProtectMode::Eviction, w),
                        ]
                    })
                    .collect(),
            )
        }
        ExperimentId::Abl1 => {
            let lines = config.llc.lines();
            let mut descs = vec![lru];
            descs.extend(
                [1u64, 4, 16].iter().map(|&f| {
                    ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, f * lines)
                }),
            );
            Some(descs)
        }
        ExperimentId::Abl3 => {
            let bases = [PolicyKind::Lru, PolicyKind::Srrip];
            let modes = [
                ProtectMode::Eviction,
                ProtectMode::Insertion,
                ProtectMode::Both,
            ];
            Some(
                bases
                    .iter()
                    .flat_map(|&b| {
                        std::iter::once(ReplayDesc::plain(b))
                            .chain(modes.iter().map(move |&m| ReplayDesc::oracle(b, m, w)))
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// The hierarchy configs an experiment records streams under, mirroring
/// each experiment body's capacity loop. `table1` touches no streams;
/// `abl5` composes multi-programmed mixes with synthetic workload ids
/// the planner does not model.
pub fn configs_for(id: ExperimentId, ctx: &ExperimentCtx) -> Vec<HierarchyConfig> {
    let all = || {
        ctx.llc_capacities
            .iter()
            .filter_map(|&cap| ctx.config(cap).ok())
            .collect::<Vec<_>>()
    };
    let main = || ctx.main_config().into_iter().collect::<Vec<_>>();
    match id {
        ExperimentId::Table1 | ExperimentId::Abl5 => Vec::new(),
        ExperimentId::Fig1
        | ExperimentId::Fig5
        | ExperimentId::Fig7
        | ExperimentId::Fig8
        | ExperimentId::Fig12 => all(),
        ExperimentId::Abl2 => main()
            .into_iter()
            .chain(
                ctx.main_config()
                    .and_then(|c| ctx.config_inclusive(c.llc.capacity_bytes)),
            )
            .collect(),
        _ => main(),
    }
}

/// Plans `id` against the context's stream cache and an optional DAG
/// store, returning one node per artifact the run would resolve:
/// a stream node for every (config, app) pair, plus deduplicated
/// annotation nodes and
/// per-policy replay nodes for memoizable experiments. The serve layer
/// appends the merged-table node, which is keyed by the whole job spec.
pub fn plan_experiment(id: ExperimentId, ctx: &ExperimentCtx, dag: Option<&DagStore>) -> Plan {
    let mut plan = Plan::default();
    for config in configs_for(id, ctx) {
        let lineup = replay_lineup(id, &config);
        let cap_kb = config.llc.capacity_bytes >> 10;
        for &app in &ctx.apps {
            let key = ctx.stream_key(app, &config);
            let stream_fp = key.fingerprint();
            let stream_bytes = ctx.streams.probe(&key);
            plan.push(
                NodeKind::Stream,
                stream_fp,
                format!("{} @{}KB", app.label(), cap_kb),
                stream_bytes.is_some(),
                stream_bytes.unwrap_or(0),
            );
            let Some(descs) = &lineup else { continue };
            let mut windows: Vec<u64> = descs
                .iter()
                .filter_map(ReplayDesc::annotation_window)
                .collect();
            windows.sort_unstable();
            windows.dedup();
            for w in windows {
                let fp = annotations_fp(stream_fp, w);
                let bytes = dag.and_then(|d| d.ann().size_of(fp));
                plan.push(
                    NodeKind::Annotations,
                    fp,
                    format!("{} @{}KB w={w}", app.label(), cap_kb),
                    bytes.is_some(),
                    bytes.unwrap_or(0),
                );
            }
            for desc in descs {
                let fp = llc_dag::replay_fp(stream_fp, desc.fingerprint());
                let bytes = dag.and_then(|d| d.replays().size_of(fp));
                plan.push(
                    NodeKind::Replay,
                    fp,
                    format!("{} @{}KB {}", app.label(), cap_kb, desc.label()),
                    bytes.is_some(),
                    bytes.unwrap_or(0),
                );
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use llc_dag::Plan;

    use super::*;

    #[test]
    fn lineups_match_experiment_bodies() {
        let ctx = ExperimentCtx::test();
        let cfg = ctx.main_config().unwrap();
        assert_eq!(replay_lineup(ExperimentId::Fig5, &cfg).unwrap().len(), 8);
        assert_eq!(replay_lineup(ExperimentId::Fig7, &cfg).unwrap().len(), 2);
        assert_eq!(replay_lineup(ExperimentId::Fig8, &cfg).unwrap().len(), 8);
        assert_eq!(replay_lineup(ExperimentId::Abl1, &cfg).unwrap().len(), 4);
        assert_eq!(replay_lineup(ExperimentId::Abl3, &cfg).unwrap().len(), 8);
        assert!(replay_lineup(ExperimentId::Fig6, &cfg).is_none());
        assert!(replay_lineup(ExperimentId::Table2, &cfg).is_none());
    }

    /// The fingerprints of `kind`'s nodes in `plan`.
    fn planned(plan: &Plan, kind: NodeKind) -> BTreeSet<u64> {
        plan.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.fp)
            .collect()
    }

    /// The fingerprints of the artifacts stored in `dir`.
    fn saved(dir: &llc_trace::ArtifactDir) -> BTreeSet<u64> {
        dir.entries()
            .expect("list artifacts")
            .into_iter()
            .filter_map(|e| e.fp)
            .collect()
    }

    #[test]
    fn runs_save_exactly_the_planned_replay_and_annotation_nodes() {
        // Every experiment, lineup or not: one without a lineup must save
        // nothing.
        for id in ExperimentId::ALL {
            let mut ctx = ExperimentCtx::test();
            ctx.apps.truncate(2);
            let root = std::env::temp_dir().join(format!(
                "llc-plan-honesty-{}-{}",
                id.label(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            ctx.dag = Some(DagStore::open(&root).expect("open dag"));
            let plan = plan_experiment(id, &ctx, None);
            crate::run_experiment(id, &ctx).expect("experiment runs");
            let dag = ctx.dag.as_ref().expect("dag");
            assert_eq!(
                saved(dag.replays()),
                planned(&plan, NodeKind::Replay),
                "{id}: saved replay nodes differ from the plan"
            );
            assert_eq!(
                saved(dag.ann()),
                planned(&plan, NodeKind::Annotations),
                "{id}: saved annotation nodes differ from the plan"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn fig7_shares_abl1_default_window_node() {
        // fig7's defaulted oracle window is 4x LLC lines — exactly
        // abl1's middle factor, so the two experiments share the
        // annotation artifact. The CI cache-reuse smoke leans on this.
        let ctx = ExperimentCtx::test();
        let cfg = ctx.main_config().unwrap();
        assert_eq!(oracle_window(&cfg), 4 * cfg.llc.lines());
    }

    #[test]
    fn configs_follow_experiment_capacity_loops() {
        let ctx = ExperimentCtx::test();
        let n = ctx.llc_capacities.len();
        assert!(configs_for(ExperimentId::Table1, &ctx).is_empty());
        assert!(configs_for(ExperimentId::Abl5, &ctx).is_empty());
        assert_eq!(configs_for(ExperimentId::Fig5, &ctx).len(), n);
        assert_eq!(configs_for(ExperimentId::Fig7, &ctx).len(), n);
        assert_eq!(configs_for(ExperimentId::Table2, &ctx).len(), 1);
        assert_eq!(configs_for(ExperimentId::Abl2, &ctx).len(), 2);
    }

    #[test]
    fn cold_plan_is_all_misses_with_replay_nodes() {
        let ctx = ExperimentCtx::test();
        let plan = plan_experiment(ExperimentId::Fig7, &ctx, None);
        assert_eq!(plan.hits(), 0);
        let n = ctx.llc_capacities.len() * ctx.apps.len();
        assert_eq!(plan.misses_of(NodeKind::Stream), n);
        assert_eq!(plan.misses_of(NodeKind::Annotations), n);
        assert_eq!(plan.misses_of(NodeKind::Replay), 2 * n);
    }

    #[test]
    fn observer_experiment_plans_streams_only() {
        let ctx = ExperimentCtx::test();
        let plan = plan_experiment(ExperimentId::Fig6, &ctx, None);
        assert!(plan.misses_of(NodeKind::Stream) > 0);
        assert_eq!(plan.misses_of(NodeKind::Replay), 0);
        assert_eq!(plan.misses_of(NodeKind::Annotations), 0);
    }
}
