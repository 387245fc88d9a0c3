//! Criterion bench: per-policy replacement overhead on a fixed workload,
//! including the oracle pre-pass cost — the "hardware cost" proxy column
//! of the evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use llc_policies::{PolicyKind, ProtectMode};
use llc_sharing::{oracle_window, simulate, ReplayDesc};
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion};
use llc_trace::{App, Scale};

fn config() -> HierarchyConfig {
    HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4).unwrap(),
        l2: None,
        llc: CacheConfig::from_kib(512, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

fn bench_policies(c: &mut Criterion) {
    let cfg = config();
    let accesses = 8 * Scale::Tiny.thread_accesses();
    let mut g = c.benchmark_group("policy");
    g.throughput(Throughput::Elements(accesses));
    g.sample_size(10);
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Nru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Opt,
    ] {
        g.bench_with_input(BenchmarkId::new("run", kind.label()), &kind, |b, &kind| {
            b.iter(|| {
                simulate(
                    &cfg,
                    &ReplayDesc::plain(kind),
                    &mut || App::Water.workload(8, Scale::Tiny),
                    vec![],
                )
                .expect("synthetic workload cannot fail")
                .llc
                .misses()
            });
        });
    }
    g.bench_function("run/Oracle(LRU)", |b| {
        b.iter(|| {
            simulate(
                &cfg,
                &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
                &mut || App::Water.workload(8, Scale::Tiny),
                vec![],
            )
            .expect("synthetic workload cannot fail")
            .llc
            .misses()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
