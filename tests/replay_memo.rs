//! The in-process replay memo: a context shared by every experiment
//! prints exactly what fresh contexts print, and it executes each
//! (stream, descriptor) node at most once.
//!
//! The replay counters are process-global, so every test here holds
//! `SERIAL` while it replays: the deltas it asserts are its own.

use std::sync::{Barrier, Mutex};

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::telemetry::metrics::global;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_test_ctx() -> ExperimentCtx {
    let mut ctx = ExperimentCtx::test();
    // Two apps keep the all-experiments sweeps fast.
    ctx.apps.truncate(2);
    ctx
}

/// The current value of an unlabelled counter (0 before it exists).
fn counter(name: &str) -> u64 {
    global()
        .encode()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split(' ').next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// `(replays executed, LLC references replayed)` so far.
fn replays() -> (u64, u64) {
    (
        counter("llc_replays_total"),
        counter("llc_replay_refs_total"),
    )
}

fn render(id: ExperimentId, ctx: &ExperimentCtx) -> Vec<String> {
    run_experiment(id, ctx)
        .unwrap_or_else(|e| panic!("{id} failed: {e}"))
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn a_shared_context_prints_what_fresh_contexts_print() {
    let _serial = serial();
    let shared = small_test_ctx();
    for id in ExperimentId::ALL {
        let memoized = render(id, &shared);
        let fresh = render(id, &small_test_ctx());
        assert_eq!(memoized, fresh, "{id}: memoized tables differ");
    }
}

#[test]
fn a_second_pass_of_the_memoized_experiments_replays_nothing() {
    use ExperimentId::*;
    let _serial = serial();
    let memoized = [
        Fig5, Fig7, Fig8, Fig10, Fig12, Abl1, Abl3, Abl4, Table2, Fig1, Fig2, Fig3, Fig4,
    ];
    let ctx = small_test_ctx();
    let first: Vec<_> = memoized.iter().map(|&id| render(id, &ctx)).collect();
    let before = replays();
    let second: Vec<_> = memoized.iter().map(|&id| render(id, &ctx)).collect();
    assert_eq!(replays(), before, "the second pass executed replays");
    assert_eq!(first, second);
}

#[test]
fn concurrent_requesters_of_one_node_share_one_replay() {
    let _serial = serial();
    let ctx = small_test_ctx();
    let cfg = ctx.main_config().expect("config");
    let desc = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg));
    // Record the stream first so both threads reach the memo together.
    let stream = ctx.stream(App::Swaptions, &cfg).expect("stream");
    let before = replays();
    let barrier = Barrier::new(2);
    let results: Vec<RunResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    ctx.replay_cached(App::Swaptions, &cfg, &desc)
                        .expect("replay")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = replays();
    assert_eq!(after.0 - before.0, 1, "one node, one replay");
    assert_eq!(
        after.1 - before.1,
        stream.len() as u64,
        "over the stream once"
    );
    assert_eq!(results[0], results[1]);
}

#[test]
fn overlapping_concurrent_study_calls_run_each_study_once() {
    let _serial = serial();
    let ctx = small_test_ctx();
    let cfg = ctx.main_config().expect("config");
    let realistic = TableConfig::realistic();
    let (a, b, c) = (
        (PredictorKind::Address, realistic),
        (PredictorKind::Pc, realistic),
        (PredictorKind::Region, realistic),
    );
    // Opposite key orders: the slots are locked in key order, so neither
    // call can hold one slot while waiting for a slot the other holds.
    let calls = [vec![a, b], vec![c, b]];
    ctx.stream(App::Fft, &cfg).expect("stream");
    let before = replays();
    let barrier = Barrier::new(2);
    let results: Vec<Vec<ConfusionMatrix>> = std::thread::scope(|s| {
        let handles: Vec<_> = calls
            .iter()
            .map(|keys| {
                let (ctx, cfg, barrier) = (&ctx, &cfg, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    ctx.predictor_studies(App::Fft, cfg, keys).expect("studies")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = replays();
    // One call replays its two misses together; the other finds the
    // shared study and replays only its own.
    assert_eq!(after.0 - before.0, 2, "three studies, two replays");
    assert_eq!(results[0][1], results[1][1], "the shared study agrees");
    let fresh = small_test_ctx();
    assert_eq!(
        fresh
            .predictor_studies(App::Fft, &cfg, &[a, b, c])
            .expect("studies"),
        vec![results[0][0], results[0][1], results[1][0]]
    );
}

#[test]
fn the_test_campaign_replays_each_node_once() {
    let _serial = serial();
    let ctx = ExperimentCtx::test();
    let before = replays();
    let records_before = counter("llc_stream_records_total");
    let scans_before = counter("llc_annotation_scans_total");
    for id in ExperimentId::ALL {
        run_experiment(id, &ctx).unwrap_or_else(|e| panic!("{id} failed: {e}"));
    }
    let (n, refs) = replays();
    let (n, refs) = (n - before.0, refs - before.1);
    let records = counter("llc_stream_records_total") - records_before;
    let scans = counter("llc_annotation_scans_total") - scans_before;
    eprintln!(
        "test campaign, report order: {n} replays over {refs} LLC refs, \
         {records} recordings, {scans} annotation scans"
    );
    // One recording per app for both LLC sizes (it was one per app and
    // size, 15 in all): 4 apps, 3 abl5 mixes and abl2's 4 inclusive
    // ad-hoc recordings.
    assert_eq!(records, 11, "recordings");
    // One annotation scan per recording an annotated descriptor reads
    // (it was one per (stream, window, descriptor) request, 75 in all).
    assert!(scans <= 11, "{scans} annotation scans");
    // Every replay ran once per call before the memo: 362 over 26.49 M.
    // The memo made it 214 over 15.84 M; one LRU pass per app for all of
    // an experiment's predictor studies makes it 182 over 13.54 M.
    assert!(n <= 186, "{n} replays");
    assert!(refs <= 13_900_000, "{refs} LLC refs");
}
