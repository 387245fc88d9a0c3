//! Quickstart: simulate one multi-threaded application on the paper's
//! machine and print the sharing characterization that motivates the whole
//! study.
//!
//! ```text
//! cargo run --release --example quickstart [app] [scale]
//! ```

use sharing_aware_llc::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let app = args
        .next()
        .map(|s| App::parse(&s).unwrap_or_else(|| panic!("unknown app '{s}'")))
        .unwrap_or(App::Bodytrack);
    let scale = args
        .next()
        .map(|s| Scale::parse(&s).unwrap_or_else(|| panic!("unknown scale '{s}'")))
        .unwrap_or(Scale::Small);

    // A scaled-down version of the paper's machine so the example runs in
    // seconds: 8 cores, private L1s, shared 1 MB 16-way LLC.
    let cfg = HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_mib(1, 16).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    };

    println!(
        "app      : {app} ({}, {} sharing)",
        app.suite(),
        app.sharing_class()
    );
    println!("machine  : {cfg}");
    println!("scale    : {scale}\n");

    let mut profile = SharingProfile::new();
    let result = simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || app.workload(cfg.cores, scale),
        vec![&mut profile],
    )
    .unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });

    println!(
        "trace    : {} accesses, {} instructions",
        result.trace_accesses, result.instructions
    );
    println!("L1       : {}", result.l1);
    println!("LLC      : {}", result.llc);
    println!("LLC MPKI : {:.2}\n", result.llc_mpki());

    println!("-- sharing characterization (the paper's Fig. 1/2 for this app) --");
    println!(
        "generations        : {} total, {:.1}% shared",
        profile.generations(),
        profile.shared_generation_fraction() * 100.0
    );
    println!(
        "LLC hits           : {} total, {:.1}% to shared generations",
        profile.hits(),
        profile.shared_hit_fraction() * 100.0
    );
    println!(
        "occupancy          : {:.1}% of line-time held by shared generations",
        profile.shared_occupancy_fraction() * 100.0
    );
    let (hs, hp) = profile.hits_per_generation();
    println!("hits per generation: {hs:.2} shared vs {hp:.2} private");
    let (two, mid, high) = profile.degree_buckets();
    println!(
        "sharing degree     : {:.0}% pairs, {:.0}% 3-4 cores, {:.0}% 5+ cores",
        two * 100.0,
        mid * 100.0,
        high * 100.0
    );
    println!(
        "read-only share    : {:.0}% of shared hits",
        profile.read_only_hit_fraction() * 100.0
    );
}
