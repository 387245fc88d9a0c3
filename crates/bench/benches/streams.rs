//! Bench: stream-replay fast path vs the legacy per-policy pipeline.
//!
//! Measures a 4-policy suite — LRU, SRRIP, OPT, Oracle(LRU), the mix the
//! fig5/fig7 experiments actually run — two ways on the same workload and
//! configuration:
//!
//! * **legacy** — the pre-fast-path cost model, reconstructed from the
//!   public primitives: LRU and SRRIP each pay one full-hierarchy
//!   simulation, while OPT and the oracle each pay an annotation pre-pass
//!   (itself a full-hierarchy simulation) *plus* the measured
//!   full-hierarchy run — six hierarchy simulations in total.
//! * **replay** — the LLC reference stream is recorded once (one
//!   hierarchy simulation), then every policy replays it LLC-only with
//!   annotations derived from the recording.
//!
//! Writes the measurements to `BENCH_streams.json` at the workspace root
//! (override with `BENCH_STREAMS_OUT`) and exits nonzero if the measured
//! speedup falls below `BENCH_STREAMS_MIN_SPEEDUP` (default 1.0), so CI
//! can assert the fast path stays fast.

use std::hint::black_box;
use std::time::{Duration, Instant};

use llc_policies::{build_policy, OracleWrap, PolicyKind, ProtectMode};
use llc_sharing::{
    compute_annotations, oracle_window, record_stream, replay, replay_kind, simulate_on,
    AnnotationFeed, ReplayDesc,
};
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion};
use llc_trace::{App, Scale};

const APP: App = App::Swaptions;
const CORES: usize = 4;
const SCALE: Scale = Scale::Small;

/// Policy labels of the measured suite, for the report.
const SUITE: [&str; 4] = ["lru", "srrip", "opt", "oracle-lru"];

fn config() -> HierarchyConfig {
    // Paper-style private hierarchy: the L1+L2 filter is what shrinks the
    // LLC reference stream relative to the trace, and that ratio is one
    // half of the fast path's advantage (the other is skipping the
    // per-policy pre-pass simulations).
    HierarchyConfig {
        cores: CORES,
        l1: CacheConfig::from_kib(32, 8).unwrap(),
        l2: Some(CacheConfig::from_kib(256, 8).unwrap()),
        llc: CacheConfig::from_kib(1024, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

/// Medians wall-clock over `samples` runs of `f`.
fn time<F: FnMut() -> u64>(samples: usize, mut f: F) -> (Duration, u64) {
    let mut times = Vec::with_capacity(samples);
    let mut checksum = 0;
    for _ in 0..samples {
        let start = Instant::now();
        checksum = black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    (times[times.len() / 2], checksum)
}

/// The suite as the runner priced it before the fast path: every policy
/// regenerates the trace and simulates the whole hierarchy, and the
/// annotated policies (OPT, oracle) pay an additional pre-pass each —
/// a recording plus an annotation scan, dropped after use — to derive
/// their annotation vectors.
fn legacy_suite(cfg: &HierarchyConfig) -> u64 {
    let sets = cfg.llc.sets() as usize;
    let ways = cfg.llc.ways;
    let mut misses = 0;
    for kind in [PolicyKind::Lru, PolicyKind::Srrip] {
        let r = simulate_on(
            cfg,
            build_policy(kind, sets, ways),
            None,
            APP.workload(CORES, SCALE),
            vec![],
        )
        .expect("full simulation runs");
        misses += r.llc.misses();
    }
    let opt = ReplayDesc::plain(PolicyKind::Opt);
    let stream = record_stream(cfg, APP.workload(CORES, SCALE)).expect("next-use pre-pass runs");
    let next = compute_annotations(&stream, 0);
    drop(stream);
    let r = simulate_on(
        cfg,
        build_policy(PolicyKind::Opt, sets, ways),
        Some(Box::new(AnnotationFeed::new(&opt, &next))),
        APP.workload(CORES, SCALE),
        vec![],
    )
    .expect("OPT simulation runs");
    misses += r.llc.misses();
    let window = oracle_window(cfg);
    let oracle = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, window);
    let stream = record_stream(cfg, APP.workload(CORES, SCALE)).expect("shared-soon pre-pass runs");
    let shared = compute_annotations(&stream, window);
    drop(stream);
    let r = simulate_on(
        cfg,
        Box::new(OracleWrap::new(
            build_policy(PolicyKind::Lru, sets, ways),
            sets,
            ways,
        )),
        Some(Box::new(AnnotationFeed::new(&oracle, &shared))),
        APP.workload(CORES, SCALE),
        vec![],
    )
    .expect("oracle simulation runs");
    misses += r.llc.misses();
    misses
}

/// The same suite through the fast path: one recording, then LLC-only
/// replays (OPT and the oracle derive their annotations from the
/// recording in a single fused scan each).
fn replay_suite(cfg: &HierarchyConfig) -> u64 {
    let stream = record_stream(cfg, APP.workload(CORES, SCALE)).expect("recording runs");
    let mut misses = 0;
    for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt] {
        misses += replay_kind(cfg, kind, &stream, vec![])
            .expect("replay runs")
            .llc
            .misses();
    }
    let oracle = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(cfg));
    misses += replay(cfg, &oracle, &stream, None, vec![])
        .expect("oracle replay runs")
        .llc
        .misses();
    misses
}

fn main() {
    let samples: usize = std::env::var("BENCH_STREAMS_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let min_speedup: f64 = std::env::var("BENCH_STREAMS_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let cfg = config();

    let stream = record_stream(&cfg, APP.workload(CORES, SCALE)).expect("recording runs");
    let (llc_refs, trace_accesses) = (stream.len() as u64, stream.trace_accesses);
    drop(stream);

    let (legacy, legacy_misses) = time(samples, || legacy_suite(&cfg));
    let (fast, fast_misses) = time(samples, || replay_suite(&cfg));
    assert_eq!(
        legacy_misses, fast_misses,
        "replay must reproduce the legacy miss counts"
    );

    let speedup = legacy.as_secs_f64() / fast.as_secs_f64().max(f64::EPSILON);
    println!("streams/legacy_suite: {legacy:?}/iter over {samples} samples ({SUITE:?})");
    println!("streams/replay_suite: {fast:?}/iter over {samples} samples (record once + replay)");
    println!("streams/speedup:      {speedup:.2}x (gate: >= {min_speedup:.2}x)");
    println!(
        "streams/filter:       {llc_refs} LLC refs / {trace_accesses} trace accesses ({:.1}%)",
        llc_refs as f64 * 100.0 / trace_accesses.max(1) as f64
    );

    let out = llc_bench::bench_report_path(Some("BENCH_STREAMS_OUT"), "BENCH_streams.json");
    let json = format!(
        "{{\n  \"benchmark\": \"streams\",\n  \"workload\": \"{}\",\n  \"scale\": \"{}\",\n  \
         \"cores\": {},\n  \"policies\": [\"{}\"],\n  \"samples\": {},\n  \
         \"trace_accesses\": {},\n  \"llc_refs\": {},\n  \
         \"legacy_suite_ms\": {:.3},\n  \"replay_suite_ms\": {:.3},\n  \
         \"speedup\": {:.3},\n  \"min_speedup\": {:.3}\n}}\n",
        APP.label(),
        SCALE,
        CORES,
        SUITE.join("\", \""),
        samples,
        trace_accesses,
        llc_refs,
        legacy.as_secs_f64() * 1e3,
        fast.as_secs_f64() * 1e3,
        speedup,
        min_speedup,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("streams/report:       {}", out.display());

    if speedup < min_speedup {
        eprintln!("error: replay speedup {speedup:.2}x below required {min_speedup:.2}x");
        std::process::exit(1);
    }
}
