//! The set-sharded replay invariant: sharding a replay over set ranges
//! must be **bit-identical** to the sequential replay — same `LlcStats`,
//! same policy label, same characterization tables — for every per-set
//! policy, and Global-scope policies must transparently fall back to the
//! sequential path with identical results.
//!
//! Baselines use an explicit shard count of 1 (`Exec::Shards(1)` is
//! documented to take the sequential path), so these tests stay
//! deterministic even while the donated-worker budget test below is
//! running in a sibling thread.

use std::sync::Arc;

use llc_sharing::{budget, oracle_window, record_stream, replay, replay_kind, Exec, ReplayDesc};
use llc_sim::LlcStats;
use proptest::prelude::*;
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::trace::{StreamAccess, VecSource};

/// 8-set LLC (2 KiB, 4-way), no L2.
fn cfg_8_sets() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(2, 4).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// 16-set LLC (8 KiB, 8-way) behind an L2.
fn cfg_16_sets() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: Some(CacheConfig::from_kib(2, 2).expect("valid L2")),
        llc: CacheConfig::from_kib(8, 8).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// Replays `desc` over `shards` set ranges (`1` = sequential).
fn replay_sharded<S: StreamAccess + Sync>(
    cfg: &HierarchyConfig,
    desc: ReplayDesc,
    stream: &S,
    shards: usize,
) -> RunResult {
    replay(cfg, &desc, stream, None, Exec::Shards(shards), vec![]).expect("replay")
}

const ALL_KINDS: [PolicyKind; 12] = [
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Nru,
    PolicyKind::Srrip,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::TaDrrip,
    PolicyKind::Lip,
    PolicyKind::Bip,
    PolicyKind::Dip,
    PolicyKind::Ship,
    PolicyKind::Opt,
];

/// Random multi-threaded traces over a small block universe, so sets
/// conflict, sharing happens, and upgrades occur.
fn trace_strategy(len: usize) -> impl Strategy<Value = Vec<MemAccess>> {
    prop::collection::vec((0usize..4, 0u64..96, prop::bool::ANY, 0u64..8), len).prop_map(|v| {
        v.into_iter()
            .map(|(core, block, write, pc)| MemAccess {
                core: CoreId::new(core),
                pc: Pc::new(0x400 + pc * 4),
                addr: Addr::new(block * 64),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                instr_gap: 3,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharded replay is bit-identical to sequential replay for every
    /// policy kind, across set counts and shard counts (including shard
    /// counts that do not divide the set count, and one shard per set).
    /// Global-scope policies (DIP/DRRIP/TA-DRRIP/SHiP) exercise the
    /// transparent sequential fallback and must also be identical.
    #[test]
    fn sharded_replay_is_bit_identical(trace in trace_strategy(500)) {
        for cfg in [cfg_8_sets(), cfg_16_sets()] {
            let stream = record_stream(&cfg, VecSource::new(trace.clone())).expect("record");
            let sets = cfg.llc.sets() as usize;
            for kind in ALL_KINDS {
                let seq = replay_sharded(&cfg, ReplayDesc::plain(kind), &stream, 1);
                for shards in [2usize, 7, sets] {
                    let sharded = replay_sharded(&cfg, ReplayDesc::plain(kind), &stream, shards);
                    prop_assert_eq!(
                        &seq, &sharded,
                        "kind {} at {} shards over {} sets", kind.label(), shards, sets
                    );
                }
            }
        }
    }

    /// Sharded oracle replay (including the OPT-base combined-annotation
    /// path) is bit-identical to the sequential oracle replay.
    #[test]
    fn sharded_oracle_replay_is_bit_identical(trace in trace_strategy(400)) {
        let cfg = cfg_8_sets();
        let stream = record_stream(&cfg, VecSource::new(trace.clone())).expect("record");
        let sets = cfg.llc.sets() as usize;
        for base in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt] {
            for mode in [ProtectMode::Eviction, ProtectMode::Insertion] {
                let desc = ReplayDesc::oracle(base, mode, oracle_window(&cfg));
                let seq = replay_sharded(&cfg, desc, &stream, 1);
                for shards in [2usize, sets] {
                    let sharded = replay_sharded(&cfg, desc, &stream, shards);
                    prop_assert_eq!(
                        &seq, &sharded,
                        "oracle base {} at {} shards", base.label(), shards
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `LlcStats` accumulation (`+=`) is associative and commutative, so
    /// summing per-shard stats in any fixed order reproduces the
    /// sequential totals.
    #[test]
    fn llc_stats_merge_is_associative_and_commutative(
        parts in prop::collection::vec(
            (
                (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
                (0u64..1000, 0u64..1000, 0u64..1000),
            ),
            1..8,
        ),
    ) {
        let parts: Vec<LlcStats> = parts
            .into_iter()
            .map(|((accesses, hits, fills, evictions), (flushed, hits_by_non_filler, writes))| {
                LlcStats {
                    accesses: accesses + hits, // keep misses() = accesses - hits well-formed
                    hits,
                    fills,
                    evictions,
                    flushed,
                    hits_by_non_filler,
                    writes,
                }
            })
            .collect();

        let mut forward = LlcStats::default();
        for p in &parts {
            forward += *p;
        }
        let mut backward = LlcStats::default();
        for p in parts.iter().rev() {
            backward += *p;
        }
        // Pairwise tree: ((p0 + p1) + (p2 + p3)) + ...
        let mut tree: Vec<LlcStats> = parts.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut acc = pair[0];
                if let Some(rhs) = pair.get(1) {
                    acc += *rhs;
                }
                next.push(acc);
            }
            tree = next;
        }
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward, tree[0]);
    }
}

/// Donated spare workers make `replay_kind` (`Exec::Auto`) shard
/// automatically — OPT included — and the result must still be
/// bit-identical to the sequential path. (Other tests in this binary use
/// explicit `Exec::Shards(1)` baselines, so this test's donation cannot
/// perturb them.)
#[test]
fn donated_budget_auto_shards_and_stays_exact() {
    let cfg = cfg_16_sets();
    let trace: Vec<MemAccess> = (0..2000usize)
        .map(|i| MemAccess {
            core: CoreId::new(i % 4),
            pc: Pc::new(0x400 + (i % 7) as u64 * 4),
            addr: Addr::new((i as u64 * 13 % 160) * 64),
            kind: if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            instr_gap: 3,
        })
        .collect();
    let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
    let stream = Arc::new(stream);

    for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt] {
        let seq = replay_sharded(&cfg, ReplayDesc::plain(kind), &stream, 1);
        budget::donate(3);
        let auto = replay_kind(&cfg, kind, &stream, vec![]).expect("auto-sharded");
        // The replay borrows workers for its own duration only; the pool
        // must be whole again afterwards.
        let drained = budget::borrow(usize::MAX);
        assert_eq!(
            drained.count(),
            3,
            "auto-shard must return its borrowed workers"
        );
        drop(drained);
        budget::reclaim(3);
        assert_eq!(seq, auto, "kind {}", kind.label());
    }
}

/// Sharded replay over a zero-copy [`StreamView`] is bit-identical to
/// sharded replay over the owned stream: the per-shard view iterators
/// decode the same records the owned planes hold, and the shard index
/// rides in the view's own slot rather than the registry.
#[test]
fn view_backed_sharded_replay_is_bit_identical() {
    let cfg = cfg_16_sets();
    let trace: Vec<MemAccess> = (0..900)
        .map(|i| {
            let r = llc_sim::splitmix64(i as u64 ^ 0x51e3);
            MemAccess {
                core: CoreId::new((r % 4) as usize),
                pc: Pc::new(0x400 + (r >> 8) % 16 * 4),
                addr: Addr::new((r >> 16) % 128 * 64),
                kind: if r.is_multiple_of(5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                instr_gap: 3,
            }
        })
        .collect();
    let stream = record_stream(&cfg, VecSource::new(trace)).expect("record");
    let bytes = stream.to_vec().expect("encode");
    let view = sharing_aware_llc::trace::StreamView::new(Arc::from(bytes.into_boxed_slice()))
        .expect("validated view");
    let sets = cfg.llc.sets() as usize;
    for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Opt] {
        for shards in [1usize, 2, 7, sets] {
            let owned = replay_sharded(&cfg, ReplayDesc::plain(kind), &stream, shards);
            let viewed = replay_sharded(&cfg, ReplayDesc::plain(kind), &view, shards);
            assert_eq!(owned, viewed, "kind {} at {shards} shards", kind.label());
        }
    }
}
