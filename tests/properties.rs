//! Property-based tests over the whole stack: randomized multi-threaded
//! traces must uphold the simulator's invariants under every policy.

use proptest::prelude::*;
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::trace::VecSource;

fn tiny_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(4, 4).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// Strategy: a random multi-threaded trace over a small block universe
/// (so sets conflict and sharing happens).
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

fn run_policy(kind: PolicyKind, trace: Vec<MemAccess>) -> (RunResult, SharingProfile) {
    let cfg = tiny_cfg();
    let mut profile = SharingProfile::new();
    let r = llc_sharing::simulate(
        &cfg,
        &ReplayDesc::plain(kind),
        &mut || VecSource::new(trace.clone()),
        vec![&mut profile],
    )
    .expect("run");
    (r, profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting identities hold for every policy on random traces.
    #[test]
    fn accounting_invariants(trace in trace_strategy(800)) {
        for kind in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Srrip,
                     PolicyKind::Drrip, PolicyKind::Dip, PolicyKind::Ship,
                     PolicyKind::Random] {
            let (r, p) = run_policy(kind, trace.clone());
            prop_assert_eq!(r.llc.accesses, r.llc.hits + r.llc.fills);
            prop_assert_eq!(r.llc.fills, r.llc.evictions + r.llc.flushed);
            prop_assert_eq!(r.llc.fills, p.generations());
            prop_assert_eq!(r.llc.hits, p.hits());
            prop_assert!(r.l1.hits <= r.l1.accesses);
        }
    }

    /// Belady's OPT never loses to any realistic policy on any trace.
    #[test]
    fn opt_is_optimal(trace in trace_strategy(600)) {
        let cfg = tiny_cfg();
        let opt = llc_sharing::simulate(&cfg, &ReplayDesc::plain(PolicyKind::Opt), &mut || VecSource::new(trace.clone()), vec![]).expect("run").llc.misses();
        for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Random,
                     PolicyKind::Ship, PolicyKind::Dip] {
            let m = run_policy(kind, trace.clone()).0.llc.misses();
            prop_assert!(opt <= m, "OPT {} beat by {}: {}", opt, kind.label(), m);
        }
    }

    /// The LLC reference stream is identical across policies
    /// (policy-independence: the foundation of the offline pre-passes).
    #[test]
    fn llc_stream_policy_independent(trace in trace_strategy(500)) {
        let (a, _) = run_policy(PolicyKind::Lru, trace.clone());
        let (b, _) = run_policy(PolicyKind::Random, trace.clone());
        let (c, _) = run_policy(PolicyKind::Ship, trace);
        prop_assert_eq!(a.llc.accesses, b.llc.accesses);
        prop_assert_eq!(a.llc.accesses, c.llc.accesses);
        prop_assert_eq!(a.llc.writes, b.llc.writes);
        // (hits_by_non_filler is NOT asserted: it attributes hits to the
        // *filler* of the current generation, and generation boundaries
        // are policy-dependent.)
    }

    /// Simulations are bit-for-bit deterministic.
    #[test]
    fn deterministic_replay(trace in trace_strategy(400)) {
        for kind in [PolicyKind::Random, PolicyKind::Drrip, PolicyKind::Bip] {
            let (a, _) = run_policy(kind, trace.clone());
            let (b, _) = run_policy(kind, trace.clone());
            prop_assert_eq!(a.llc, b.llc);
            prop_assert_eq!(a.l1, b.l1);
        }
    }

    /// An LLC with more capacity never misses more under LRU (stack
    /// property survives the multi-core L1 filtering because the LLC
    /// stream is LLC-independent).
    #[test]
    fn bigger_lru_llc_never_misses_more(trace in trace_strategy(600)) {
        let small = tiny_cfg();
        let mut big = small;
        big.llc = CacheConfig::from_kib(8, 8).expect("valid LLC");
        let ms = llc_sharing::simulate(&small, &ReplayDesc::plain(PolicyKind::Lru), &mut || VecSource::new(trace.clone()), vec![])
            .expect("run").llc.misses();
        let mb = llc_sharing::simulate(&big, &ReplayDesc::plain(PolicyKind::Lru), &mut || VecSource::new(trace.clone()), vec![])
            .expect("run").llc.misses();
        prop_assert!(mb <= ms, "8KB LRU missed more ({mb}) than 4KB ({ms})");
    }

    /// The oracle wrapper cannot blow up miss counts: its worst case is
    /// bounded (it only reorders victim preference within a set).
    #[test]
    fn oracle_wrapper_bounded_regression(trace in trace_strategy(600)) {
        let cfg = tiny_cfg();
        let lru = llc_sharing::simulate(&cfg, &ReplayDesc::plain(PolicyKind::Lru), &mut || VecSource::new(trace.clone()), vec![])
            .expect("run").llc.misses();
        let oracle = llc_sharing::simulate(&cfg, &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
            &mut || VecSource::new(trace.clone()), vec![]).expect("run").llc.misses();
        // Identical access counts, and misses within a generous envelope.
        prop_assert!(oracle <= lru + lru / 4 + 8,
            "oracle {} vs lru {}", oracle, lru);
    }

    /// Recorded traces round-trip bit-exactly through the binary format.
    #[test]
    fn trace_format_round_trips(trace in trace_strategy(300)) {
        let mut bytes = Vec::new();
        sharing_aware_llc::trace::write_trace(VecSource::new(trace.clone()), &mut bytes)
            .expect("encode");
        let back = sharing_aware_llc::trace::TraceFileSource::new(bytes.as_slice())
            .expect("header")
            .read_all()
            .expect("decode");
        prop_assert_eq!(trace, back);
    }

    /// Arbitrary byte-level corruption of a valid trace ends decoding in
    /// Ok or a typed error — never a panic.
    #[test]
    fn corrupted_trace_decoding_never_panics(
        trace in trace_strategy(200),
        seed in 0u64..u64::MAX,
        flips in 1usize..6,
    ) {
        use sharing_aware_llc::trace::{CorruptingReader, FaultPlan, TraceFileSource};
        let mut bytes = Vec::new();
        sharing_aware_llc::trace::write_trace(VecSource::new(trace), &mut bytes)
            .expect("encode");
        let plan = FaultPlan::random_bit_flips(seed, bytes.len() as u64, flips);
        if let Ok(src) = TraceFileSource::new(CorruptingReader::new(bytes.as_slice(), &plan)) {
            let _ = src.read_all();
        }
    }

    /// Generation sharing data is consistent: sharer count bounds
    /// cross-core hits, and writes imply a writer.
    #[test]
    fn generation_records_consistent(trace in trace_strategy(700)) {
        struct Check(Vec<String>);
        impl LlcObserver for Check {
            fn on_generation_end(&mut self, gen: &GenerationEnd) {
                if gen.sharer_mask & (1 << gen.fill_core.index()) == 0 {
                    self.0.push(format!("filler missing from sharers: {gen:?}"));
                }
                if gen.writes > 0 && gen.writer_mask == 0 {
                    self.0.push(format!("writes without writers: {gen:?}"));
                }
                if gen.writer_mask & !gen.sharer_mask != 0 {
                    self.0.push(format!("writer not a sharer: {gen:?}"));
                }
                if gen.end_time < gen.fill_time {
                    self.0.push(format!("negative lifetime: {gen:?}"));
                }
                if u64::from(gen.hits_by_non_filler) > u64::from(gen.hits) {
                    self.0.push(format!("cross-core hits exceed hits: {gen:?}"));
                }
            }
        }
        let mut check = Check(Vec::new());
        llc_sharing::simulate(
            &tiny_cfg(), &ReplayDesc::plain(PolicyKind::Lru),
            &mut || VecSource::new(trace.clone()), vec![&mut check]).expect("run");
        prop_assert!(check.0.is_empty(), "{}", check.0.join("; "));
    }
}
