//! Replacement-policy tournament: every realistic policy plus Belady's
//! OPT on one workload, with the sharing-awareness metric (premature
//! shared-block victimizations) alongside the miss counts.
//!
//! ```text
//! cargo run --release --example policy_tournament [app] [llc_kib]
//! ```

use sharing_aware_llc::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let app = args
        .next()
        .map(|s| App::parse(&s).unwrap_or_else(|| panic!("unknown app '{s}'")))
        .unwrap_or(App::Ferret);
    let llc_kib: u64 = args
        .next()
        .map(|s| s.parse().expect("llc size in KiB"))
        .unwrap_or(1024);

    let cfg = HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(llc_kib, 16).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    };
    println!("app: {app}   machine: {cfg}\n");
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>12}",
        "policy", "misses", "vs LRU", "premature%", "shared-vic%"
    );

    let window = 64 * cfg.llc.ways as u64;
    let mut lru_misses = 0u64;
    let mut lineup: Vec<PolicyKind> = PolicyKind::REALISTIC.to_vec();
    lineup.push(PolicyKind::Opt);
    for kind in lineup {
        let mut vic = VictimizationStats::new(window);
        let r = simulate(
            &cfg,
            &ReplayDesc::plain(kind),
            &mut || app.workload(cfg.cores, Scale::Small),
            vec![&mut vic],
        )
        .expect("run");
        if kind == PolicyKind::Lru {
            lru_misses = r.llc.misses();
        }
        println!(
            "{:<8} {:>12} {:>9.3} {:>9.1}% {:>11.1}%",
            kind.label(),
            r.llc.misses(),
            r.llc.misses() as f64 / lru_misses.max(1) as f64,
            vic.premature_rate() * 100.0,
            vic.shared_victimization_rate() * 100.0
        );
    }
    println!("\nOPT's shared-victimization rate is the sharing-awareness target;");
    println!("the realistic policies' gap to it is what the oracle closes.");
}
