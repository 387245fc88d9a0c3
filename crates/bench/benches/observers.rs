//! Bench: observed LRU replays with Fx-keyed observer state vs the
//! SipHash observers they replaced.
//!
//! The characterization tables are read off *observed* replays: the
//! sharing profile (table2, fig1–4), premature victimization (fig6) and
//! fill-time predictor studies (fig9, table3). Each observer keeps
//! per-block state that it touches on every fill or generation end. This
//! bench records one LLC stream per app and replays plain LRU over it:
//!
//! * **plain** — no observer (the set-sharded path is off: every row
//!   runs `Exec::Shards(1)`, as observed replays always do);
//! * **seed** — each observer as it stood with `std::HashMap` (SipHash)
//!   state, from `llc_bench::siphash_observers`: victimization with two
//!   maps (three accesses per fill, two per generation end), profile
//!   footprint and predictor-study pending predictions keyed by SipHash;
//! * **fx** — the in-tree observers: Fx-keyed state and one map access
//!   per event.
//!
//! A fourth pair times `fig9`'s six studies: six seed passes, one study
//! each, against one pass feeding six in-tree studies, as
//! `ExperimentCtx::predictor_studies` runs them.
//!
//! Seed and fx counts are asserted identical for every app and observer,
//! so both sides time the same work. Times are best-of-[`SAMPLES`],
//! sampled in interleaved rounds, and reported in ns per LLC reference.
//! Writes `BENCH_observers.json` at the workspace root. Exits nonzero if
//! the suite-aggregate seed-over-fx speedup of the victimization and
//! profile replays falls below [`MIN_SPEEDUP`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use llc_bench::siphash_observers::{
    self as seed, assert_profile_matches, assert_victimization_matches,
};
use llc_policies::PolicyKind;
use llc_predictors::{build_predictor_with, ConfusionMatrix, PredictorStudy, TableConfig};
use llc_sharing::{
    record_stream, replay, Exec, ReplayDesc, SharingProfile, VictimizationStats, FIG9_DESIGNS,
};
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion, LlcObserver};
use llc_trace::{App, RecordedStream, Scale};

const CORES: usize = 4;
const SCALE: Scale = Scale::Small;

/// Workloads measured: mostly-private (swaptions), producer–consumer
/// (bodytrack) and all-to-all phases (fft), as in the record bench.
const SUITE: [App; 3] = [App::Swaptions, App::Bodytrack, App::Fft];

/// Timing rounds; each variant's time is its best round.
const SAMPLES: usize = 5;

/// The least suite-aggregate seed-over-fx speedup of the victimization
/// and profile replays the bench accepts.
const MIN_SPEEDUP: f64 = 1.1;

fn config() -> HierarchyConfig {
    // Same paper-style hierarchy as the kernel/shard/record benches.
    HierarchyConfig {
        cores: CORES,
        l1: CacheConfig::from_kib(32, 8).unwrap(),
        l2: Some(CacheConfig::from_kib(256, 8).unwrap()),
        llc: CacheConfig::from_kib(1024, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

/// One sequential LRU replay of `stream` with `observers` attached.
fn replay_lru(
    cfg: &HierarchyConfig,
    stream: &RecordedStream,
    observers: Vec<&mut dyn LlcObserver>,
) {
    black_box(
        replay(
            cfg,
            &ReplayDesc::plain(PolicyKind::Lru),
            stream,
            None,
            Exec::Shards(1),
            observers,
        )
        .expect("replay runs"),
    );
}

/// Best-of-[`SAMPLES`] wall clock of each closure, sampled in interleaved
/// rounds so slow phases of the host hit every variant alike. The
/// minimum is the noise-robust estimator: perturbations only add time.
fn best_of<const N: usize>(mut runs: [&mut dyn FnMut(); N]) -> [Duration; N] {
    let mut best = [Duration::MAX; N];
    for _ in 0..SAMPLES {
        for (run, best) in runs.iter_mut().zip(&mut best) {
            let start = Instant::now();
            run();
            *best = (*best).min(start.elapsed());
        }
    }
    best
}

/// One observer pair's per-app timings, ns per LLC reference.
struct Row {
    app: App,
    refs: u64,
    plain: f64,
    /// With an observer that ignores every event: the observed path's
    /// own cost.
    null: f64,
    /// `[seed, fx]` for victimization, profile, one study, fig9's six.
    pairs: [[f64; 2]; 4],
}

const PAIRS: [&str; 4] = ["victimization", "profile", "study", "fig9_studies"];

fn measure(cfg: &HierarchyConfig, app: App) -> Row {
    let stream = record_stream(cfg, app.workload(CORES, SCALE)).expect("recording runs");
    let window = 64 * cfg.llc.ways as u64;
    let study = |design| build_predictor_with(design, TableConfig::realistic());

    // Counts first: every fx observer must count what its seed counted.
    let (mut sv, mut fv) = (
        seed::Victimization::new(window),
        VictimizationStats::new(window),
    );
    let (mut sp, mut fp) = (seed::Profile::new(), SharingProfile::new());
    replay_lru(cfg, &stream, vec![&mut sv, &mut fv, &mut sp, &mut fp]);
    assert_victimization_matches(&fv, &sv, app.label());
    assert_profile_matches(&fp, &sp, app.label());
    let mut seeds: Vec<seed::Study> = FIG9_DESIGNS
        .iter()
        .map(|&d| seed::Study::new(study(d)))
        .collect();
    let mut fxs: Vec<PredictorStudy> = FIG9_DESIGNS
        .iter()
        .map(|&d| PredictorStudy::new(study(d)))
        .collect();
    let observers = seeds
        .iter_mut()
        .map(|s| s as &mut dyn LlcObserver)
        .chain(fxs.iter_mut().map(|s| s as &mut dyn LlcObserver))
        .collect();
    replay_lru(cfg, &stream, observers);
    let seed_m: Vec<ConfusionMatrix> = seeds.iter().map(seed::Study::matrix).collect();
    let fx_m: Vec<ConfusionMatrix> = fxs.iter().map(PredictorStudy::matrix).collect();
    assert_eq!(seed_m, fx_m, "{app}: predictor studies differ");

    let s = &stream;
    let [plain, null, sv, fv, sp, fp, ss, fs, s6, f6] = best_of([
        &mut || replay_lru(cfg, s, vec![]),
        &mut || replay_lru(cfg, s, vec![&mut llc_sim::NullObserver]),
        &mut || replay_lru(cfg, s, vec![&mut seed::Victimization::new(window)]),
        &mut || replay_lru(cfg, s, vec![&mut VictimizationStats::new(window)]),
        &mut || replay_lru(cfg, s, vec![&mut seed::Profile::new()]),
        &mut || replay_lru(cfg, s, vec![&mut SharingProfile::new()]),
        &mut || replay_lru(cfg, s, vec![&mut seed::Study::new(study(FIG9_DESIGNS[0]))]),
        &mut || {
            replay_lru(
                cfg,
                s,
                vec![&mut PredictorStudy::new(study(FIG9_DESIGNS[0]))],
            )
        },
        &mut || {
            for &design in &FIG9_DESIGNS {
                replay_lru(cfg, s, vec![&mut seed::Study::new(study(design))]);
            }
        },
        &mut || {
            let mut studies: Vec<PredictorStudy> = FIG9_DESIGNS
                .iter()
                .map(|&d| PredictorStudy::new(study(d)))
                .collect();
            replay_lru(
                cfg,
                s,
                studies
                    .iter_mut()
                    .map(|s| s as &mut dyn LlcObserver)
                    .collect(),
            );
        },
    ]);
    let refs = stream.len() as u64;
    let ns = |d: Duration| d.as_secs_f64() * 1e9 / refs as f64;
    Row {
        app,
        refs,
        plain: ns(plain),
        null: ns(null),
        pairs: [
            [ns(sv), ns(fv)],
            [ns(sp), ns(fp)],
            [ns(ss), ns(fs)],
            [ns(s6), ns(f6)],
        ],
    }
}

fn main() {
    let cfg = config();

    let rows: Vec<Row> = SUITE.iter().map(|&app| measure(&cfg, app)).collect();
    for r in &rows {
        print!(
            "observers/{}: plain {:.1} ns/ref, null observer {:.1}",
            r.app.label(),
            r.plain,
            r.null
        );
        for (name, [seed, fx]) in PAIRS.iter().zip(r.pairs) {
            print!(", {name} {seed:.1} -> {fx:.1} ({:.2}x)", seed / fx);
        }
        println!(" over {} LLC refs", r.refs);
    }
    // Reference-weighted totals: seed time over fx time across the suite.
    let total = |pair: usize, side: usize| -> f64 {
        rows.iter()
            .map(|r| r.pairs[pair][side] * r.refs as f64)
            .sum()
    };
    let speedups: Vec<f64> = (0..PAIRS.len())
        .map(|p| total(p, 0) / total(p, 1))
        .collect();
    let gated = (total(0, 0) + total(1, 0)) / (total(0, 1) + total(1, 1));
    for (name, speedup) in PAIRS.iter().zip(&speedups) {
        println!("observers/{name}_speedup: {speedup:.2}x");
    }
    println!("observers/gated_speedup: {gated:.2}x (victimization + profile, gate: >= {MIN_SPEEDUP:.2}x)");

    let list = |f: &dyn Fn(&Row) -> String| rows.iter().map(f).collect::<Vec<_>>().join(", ");
    let mut json = format!(
        "{{\n  \"benchmark\": \"observers\",\n  \"scale\": \"{SCALE}\",\n  \"cores\": {CORES},\n  \
         \"sets\": {},\n  \"ways\": {},\n  \"samples\": {SAMPLES},\n  \"workloads\": [\"{}\"],\n  \
         \"llc_refs\": [{}],\n  \"plain_ns_per_ref\": [{}],\n  \"null_observer_ns_per_ref\": [{}],\n",
        cfg.llc.sets(),
        cfg.llc.ways,
        SUITE.map(|a| a.label().to_string()).join("\", \""),
        list(&|r| r.refs.to_string()),
        list(&|r| format!("{:.2}", r.plain)),
        list(&|r| format!("{:.2}", r.null)),
    );
    for (p, name) in PAIRS.iter().enumerate() {
        json += &format!(
            "  \"{name}\": {{\"seed_ns_per_ref\": [{}], \"fx_ns_per_ref\": [{}], \
             \"speedup\": {:.3}}},\n",
            list(&|r| format!("{:.2}", r.pairs[p][0])),
            list(&|r| format!("{:.2}", r.pairs[p][1])),
            speedups[p],
        );
    }
    json += &format!("  \"gated_speedup\": {gated:.3},\n  \"min_speedup\": {MIN_SPEEDUP:.3}\n}}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_observers.json");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: writing {out}: {e}");
        std::process::exit(1);
    }
    println!("observers/report: {out}");

    if gated < MIN_SPEEDUP {
        eprintln!("error: observer speedup {gated:.2}x below required {MIN_SPEEDUP:.2}x");
        std::process::exit(1);
    }
}
