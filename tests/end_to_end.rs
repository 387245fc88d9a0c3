//! Cross-crate integration tests: the full pipeline (workload → hierarchy
//! → policy → characterization) must reproduce the paper's qualitative
//! claims on the test-scale machine.

use sharing_aware_llc::prelude::*;

fn test_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(2, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(64, 8).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

fn profile_of(app: App, cfg: &HierarchyConfig) -> (RunResult, SharingProfile) {
    let mut profile = SharingProfile::new();
    let r = simulate(
        cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || app.workload(cfg.cores, Scale::Tiny),
        vec![&mut profile],
    )
    .expect("run");
    (r, profile)
}

#[test]
fn sharing_classes_are_reflected_in_the_llc() {
    let cfg = test_cfg();
    // Pure-private control: essentially no shared hits.
    let (_, swaptions) = profile_of(App::Swaptions, &cfg);
    assert!(
        swaptions.shared_hit_fraction() < 0.05,
        "swaptions shared-hit fraction {}",
        swaptions.shared_hit_fraction()
    );
    // Read-shared app: a solid chunk of hits is to shared generations.
    let (_, bodytrack) = profile_of(App::Bodytrack, &cfg);
    assert!(
        bodytrack.shared_hit_fraction() > 0.2,
        "bodytrack shared-hit fraction {}",
        bodytrack.shared_hit_fraction()
    );
    // Migratory app: shared generations are mostly read-write.
    let (_, water) = profile_of(App::Water, &cfg);
    assert!(
        water.read_only_hit_fraction() < 0.5,
        "water read-only hit fraction {}",
        water.read_only_hit_fraction()
    );
    // Read-shared app: shared hits are mostly read-only.
    assert!(
        bodytrack.read_only_hit_fraction() > 0.5,
        "bodytrack read-only hit fraction {}",
        bodytrack.read_only_hit_fraction()
    );
}

#[test]
fn shared_generations_punch_above_their_population() {
    // The paper's central claim: hits-share exceeds population-share for
    // shared generations in sharing-heavy apps.
    let cfg = test_cfg();
    for app in [App::Bodytrack, App::Streamcluster, App::Ferret] {
        let (_, p) = profile_of(app, &cfg);
        assert!(
            p.shared_hit_fraction() > p.shared_generation_fraction(),
            "{app}: hits {:.3} vs population {:.3}",
            p.shared_hit_fraction(),
            p.shared_generation_fraction()
        );
    }
}

#[test]
fn accounting_identities_hold() {
    let cfg = test_cfg();
    for app in [App::Dedup, App::Fft, App::Canneal] {
        let mut profile = SharingProfile::new();
        let r = simulate(
            &cfg,
            &ReplayDesc::plain(PolicyKind::Srrip),
            &mut || app.workload(cfg.cores, Scale::Tiny),
            vec![&mut profile],
        )
        .expect("run");
        // Every fill ends exactly one generation (incl. the final flush).
        assert_eq!(
            r.llc.fills,
            profile.generations(),
            "{app}: fills vs generations"
        );
        assert_eq!(
            r.llc.fills,
            r.llc.evictions + r.llc.flushed,
            "{app}: fill balance"
        );
        // Hits attributed to generations equal the LLC's hit counter.
        assert_eq!(r.llc.hits, profile.hits(), "{app}: hit attribution");
        assert_eq!(
            r.llc.accesses,
            r.llc.hits + r.llc.fills,
            "{app}: access balance"
        );
        assert_eq!(
            r.llc.hits_by_non_filler, profile.hits_by_non_filler,
            "{app}: cross-core hit attribution"
        );
    }
}

#[test]
fn opt_lower_bounds_all_policies_on_all_test_apps() {
    let cfg = test_cfg();
    for app in [App::Bodytrack, App::Water, App::Radix, App::Swim] {
        let mut make = || app.workload(cfg.cores, Scale::Tiny);
        let opt = simulate(&cfg, &ReplayDesc::plain(PolicyKind::Opt), &mut make, vec![])
            .expect("run")
            .llc
            .misses();
        for kind in PolicyKind::REALISTIC {
            let m = simulate(&cfg, &ReplayDesc::plain(kind), &mut make, vec![])
                .expect("run")
                .llc
                .misses();
            assert!(opt <= m, "{app}: OPT {opt} > {} {m}", kind.label());
        }
    }
}

#[test]
fn oracle_gains_concentrate_on_sharing_heavy_apps() {
    let cfg = test_cfg();
    let gain = |app: App| {
        let mut make = || app.workload(cfg.cores, Scale::Tiny);
        let lru = simulate(&cfg, &ReplayDesc::plain(PolicyKind::Lru), &mut make, vec![])
            .expect("run")
            .llc
            .misses();
        let oracle = simulate(
            &cfg,
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, oracle_window(&cfg)),
            &mut make,
            vec![],
        )
        .expect("run")
        .llc
        .misses();
        1.0 - oracle as f64 / lru.max(1) as f64
    };
    let private = gain(App::Swaptions);
    let shared = gain(App::Streamcluster);
    assert!(
        shared > private,
        "oracle gain should favour sharing-heavy apps: shared {shared:.4} vs private {private:.4}"
    );
    // A pure-private app has nothing to protect: gain ~ 0 either way.
    assert!(private.abs() < 0.02, "swaptions oracle gain {private}");
}

#[test]
fn oracle_cannot_improve_opt() {
    // OPT is optimal, so constraining its victim choice with the sharing
    // oracle can only add misses — the quantitative form of "OPT is
    // already sharing-aware; there is nothing left to protect".
    let cfg = test_cfg();
    let app = App::Bodytrack;
    let mut make = || app.workload(cfg.cores, Scale::Tiny);
    let opt = simulate(&cfg, &ReplayDesc::plain(PolicyKind::Opt), &mut make, vec![])
        .expect("run")
        .llc
        .misses();
    let wrapped = llc_sharing::simulate(
        &cfg,
        &ReplayDesc::oracle(PolicyKind::Opt, ProtectMode::Eviction, oracle_window(&cfg)),
        &mut make,
        vec![],
    )
    .expect("run")
    .llc
    .misses();
    assert!(
        wrapped >= opt,
        "wrapping OPT cannot reduce misses ({wrapped} < {opt})"
    );
}

#[test]
fn predictor_study_runs_end_to_end() {
    let cfg = test_cfg();
    let mut addr = PredictorStudy::new(build_predictor(PredictorKind::Address));
    let mut pc = PredictorStudy::new(build_predictor(PredictorKind::Pc));
    simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || App::Ferret.workload(cfg.cores, Scale::Tiny),
        vec![&mut addr, &mut pc],
    )
    .expect("run");
    let (ma, mp) = (addr.matrix(), pc.matrix());
    assert!(ma.total() > 1000);
    assert_eq!(ma.total(), mp.total());
    // Both predictors must at least beat coin-flipping on a pipeline app…
    assert!(ma.accuracy() > 0.5, "addr accuracy {}", ma.accuracy());
    assert!(mp.accuracy() > 0.5, "pc accuracy {}", mp.accuracy());
}

#[test]
fn predictor_wrapper_is_safe_even_with_bad_predictions() {
    // Driving the protection mechanism with the always-shared baseline
    // degenerates to the base policy (everything protected = nothing
    // protected).
    let cfg = test_cfg();
    let app = App::Ocean;
    let mut make = || app.workload(cfg.cores, Scale::Tiny);
    let lru = simulate(&cfg, &ReplayDesc::plain(PolicyKind::Lru), &mut make, vec![])
        .expect("run")
        .llc
        .misses();
    let wrapped = simulate(
        &cfg,
        &ReplayDesc::predicted(PolicyKind::Lru, PredictorKind::AlwaysShared),
        &mut make,
        vec![],
    )
    .expect("run")
    .llc
    .misses();
    assert_eq!(lru, wrapped);
}

#[test]
fn phase_shifting_apps_are_burstier_than_steady_ones() {
    // Needs an LLC big enough that fft's transpose segments produce hits
    // at all (the matrix is ~256 KB at tiny scale).
    let mut cfg = test_cfg();
    cfg.llc = CacheConfig::from_kib(512, 8).expect("valid LLC");
    let burstiness = |app: App| {
        let probe = simulate(
            &cfg,
            &ReplayDesc::plain(PolicyKind::Lru),
            &mut || app.workload(cfg.cores, Scale::Tiny),
            vec![],
        )
        .expect("run");
        let mut series = EpochSeries::new((probe.llc.accesses / 16).max(1));
        simulate(
            &cfg,
            &ReplayDesc::plain(PolicyKind::Lru),
            &mut || app.workload(cfg.cores, Scale::Tiny),
            vec![&mut series],
        )
        .expect("run");
        series.sharing_burstiness()
    };
    let fft = burstiness(App::Fft);
    let bodytrack = burstiness(App::Bodytrack);
    assert!(
        fft > bodytrack,
        "fft burstiness {fft:.3} <= bodytrack {bodytrack:.3}"
    );
}
