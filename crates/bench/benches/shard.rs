//! Bench: set-sharded replay vs sequential replay.
//!
//! Records one LLC reference stream, then replays a 3-policy per-set
//! suite — LRU, SRRIP, OPT — through `replay` with `Exec::Shards(n)`
//! at 1, 2, 4 and 8 shards. Shard count 1 is the sequential path; the
//! others fan the set ranges out through `pool::map`. Sharded replay is
//! bit-identical to sequential replay (asserted here on the summed miss
//! counts, and property-tested in `tests/shard_equivalence.rs`), so the
//! only thing this benchmark measures is wall-clock.
//!
//! Every cell is measured twice, via `set_host_thread_override`:
//!
//! * **1-thread floor** (override = 1): every shard runs inline on one
//!   thread, exposing the pure sharding overhead. Gate: the *minimum*
//!   speedup across shard counts must stay above
//!   `BENCH_SHARD_MIN_SPEEDUP_1T` (default 0.95) — sharding must not
//!   lose even with no parallelism to gain from.
//! * **Multi-thread** (no override): the default cap, two workers per
//!   hardware thread. On hosts with two or more hardware threads the *best*
//!   speedup across shard counts must clear `BENCH_SHARD_MIN_SPEEDUP`
//!   (default 1.0): sharding must actually win somewhere. On a
//!   single-hardware-thread host the numbers are recorded but the gate
//!   falls back to the floor above.
//!
//! Writes both series to `BENCH_shard.json` at the workspace root
//! (override with `BENCH_SHARD_OUT`) and exits nonzero on a gate miss.
//!
//! The stream is registered with the shard-index registry up front
//! (`register_stream`), as `StreamCache` does for every stream it hands
//! out, so each shard count builds its index once rather than once per
//! sample — the benchmark measures replay, not re-indexing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llc_policies::PolicyKind;
use llc_sharing::{
    record_stream, register_stream, replay, set_host_thread_override, Exec, ReplayDesc,
};
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion};
use llc_trace::{App, Scale};

const APP: App = App::Swaptions;
const CORES: usize = 4;
const SCALE: Scale = Scale::Small;
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Policy labels of the measured suite, for the report.
const SUITE: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt];

fn config() -> HierarchyConfig {
    // Same paper-style hierarchy as the streams bench: a 1 MiB 16-way
    // LLC gives 1024 sets, so even 8 shards get 128 sets each.
    HierarchyConfig {
        cores: CORES,
        l1: CacheConfig::from_kib(32, 8).unwrap(),
        l2: Some(CacheConfig::from_kib(256, 8).unwrap()),
        llc: CacheConfig::from_kib(1024, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

fn main() {
    let samples: usize = std::env::var("BENCH_SHARD_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let min_speedup: f64 = std::env::var("BENCH_SHARD_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let min_speedup_1t: f64 = std::env::var("BENCH_SHARD_MIN_SPEEDUP_1T")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.95);
    let cfg = config();

    let stream = Arc::new(record_stream(&cfg, APP.workload(CORES, SCALE)).expect("recording runs"));
    register_stream(&stream);
    let llc_refs = stream.len() as u64;

    // Each (policy, shard count, thread mode) cell is timed on its own
    // and the cells are sampled in interleaved rounds, so slow phases of
    // the host hit every cell alike; per-cell best-of-`samples` is the
    // noise-robust estimator (perturbations only ever add time), and a
    // shard count's figure is the *sum* of its cells — min-of-a-sum
    // would instead need every policy to land in a quiet phase
    // simultaneously.
    let mut cell_1t = vec![[Duration::MAX; SHARDS.len()]; SUITE.len()];
    let mut cell_mt = vec![[Duration::MAX; SHARDS.len()]; SUITE.len()];
    let mut checksums = vec![0u64; SHARDS.len()];
    for _ in 0..samples {
        for (i, &shards) in SHARDS.iter().enumerate() {
            let mut checksum = 0u64;
            for (k, &kind) in SUITE.iter().enumerate() {
                set_host_thread_override(Some(1));
                let start = Instant::now();
                checksum += black_box(
                    replay(
                        &cfg,
                        &ReplayDesc::plain(kind),
                        &stream,
                        None,
                        Exec::Shards(shards),
                        vec![],
                    )
                    .expect("replay runs")
                    .llc
                    .misses(),
                );
                cell_1t[k][i] = cell_1t[k][i].min(start.elapsed());

                set_host_thread_override(None);
                let start = Instant::now();
                checksum += black_box(
                    replay(
                        &cfg,
                        &ReplayDesc::plain(kind),
                        &stream,
                        None,
                        Exec::Shards(shards),
                        vec![],
                    )
                    .expect("replay runs")
                    .llc
                    .misses(),
                );
                cell_mt[k][i] = cell_mt[k][i].min(start.elapsed());
            }
            checksums[i] = checksum;
        }
    }
    set_host_thread_override(None);
    let sum_cells = |cell: &[[Duration; SHARDS.len()]]| -> Vec<Duration> {
        (0..SHARDS.len())
            .map(|i| cell.iter().map(|row| row[i]).sum())
            .collect()
    };
    let best_1t = sum_cells(&cell_1t);
    let best_mt = sum_cells(&cell_mt);
    for (i, &shards) in SHARDS.iter().enumerate() {
        println!(
            "shard/replay_x{shards}: {:?}/iter 1-thread, {:?}/iter multi-thread (sums of {} \
             per-policy best-of-{samples})",
            best_1t[i],
            best_mt[i],
            SUITE.len()
        );
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "sharded replay must reproduce the sequential miss counts: {checksums:?}"
    );

    let speedups_of = |best: &[Duration]| -> Vec<f64> {
        let sequential = best[0];
        best.iter()
            .map(|m| sequential.as_secs_f64() / m.as_secs_f64().max(f64::EPSILON))
            .collect()
    };
    let speedups_1t = speedups_of(&best_1t);
    let speedups_mt = speedups_of(&best_mt);
    let floor_1t = speedups_1t[1..]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let best = speedups_mt[1..].iter().copied().fold(0.0f64, f64::max);
    let worst = speedups_mt[1..]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "shard/speedup_best:  {best:.2}x multi-thread, min {worst:.2}x; 1-thread floor \
         {floor_1t:.2}x ({host_threads} host threads; gate: best >= {min_speedup:.2}x \
         multi-thread, floor >= {min_speedup_1t:.2}x single-thread)"
    );

    let fmt_list = |items: Vec<String>| items.join(", ");
    let ms_list = |best: &[Duration]| {
        fmt_list(
            best.iter()
                .map(|m| format!("{:.3}", m.as_secs_f64() * 1e3))
                .collect(),
        )
    };
    let out = llc_bench::bench_report_path(Some("BENCH_SHARD_OUT"), "BENCH_shard.json");
    let json = format!(
        "{{\n  \"benchmark\": \"shard\",\n  \"workload\": \"{}\",\n  \"scale\": \"{}\",\n  \
         \"cores\": {},\n  \"sets\": {},\n  \"host_threads\": {},\n  \"policies\": [\"{}\"],\n  \
         \"samples\": {},\n  \"llc_refs\": {},\n  \"shards\": [{}],\n  \"ms\": [{}],\n  \
         \"ms_1t\": [{}],\n  \"speedups\": [{}],\n  \"speedups_1t\": [{}],\n  \
         \"speedup\": {:.3},\n  \"speedup_min\": {:.3},\n  \"speedup_floor_1t\": {:.3},\n  \
         \"min_speedup\": {:.3},\n  \"min_speedup_1t\": {:.3}\n}}\n",
        APP.label(),
        SCALE,
        CORES,
        cfg.llc.sets(),
        host_threads,
        SUITE.map(|k| k.label()).join("\", \""),
        samples,
        llc_refs,
        fmt_list(SHARDS.iter().map(|s| s.to_string()).collect()),
        ms_list(&best_mt),
        ms_list(&best_1t),
        fmt_list(speedups_mt.iter().map(|s| format!("{s:.3}")).collect()),
        fmt_list(speedups_1t.iter().map(|s| format!("{s:.3}")).collect()),
        best,
        worst,
        floor_1t,
        min_speedup,
        min_speedup_1t,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("shard/report:        {}", out.display());

    // The 1-thread floor is measured explicitly (override = 1), so it is
    // enforceable on every host.
    if floor_1t < min_speedup_1t {
        eprintln!(
            "error: 1-thread sharded speedup floor {floor_1t:.2}x below required \
             {min_speedup_1t:.2}x"
        );
        std::process::exit(1);
    }
    // The multi-thread win is only demanded where a second hardware
    // thread exists to win with.
    if host_threads >= 2 && best < min_speedup {
        eprintln!("error: sharded speedup {best:.2}x below required {min_speedup:.2}x");
        std::process::exit(1);
    }
}
