//! The paper's headline experiment in miniature: how many LLC misses does
//! the sharing-aware oracle remove from LRU (and from a modern policy) on
//! each workload?
//!
//! ```text
//! cargo run --release --example oracle_study [llc_kib]
//! ```

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{compute_annotations, record_stream};

fn main() {
    let llc_kib: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("llc size in KiB"))
        .unwrap_or(1024);
    let cfg = HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(llc_kib, 16).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    };
    println!("machine: {cfg}\n");
    println!(
        "{:<14} {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "app", "LRU", "Oracle(LRU)", "gain", "DRRIP", "Oracle(DRRIP)", "gain"
    );

    let mut gains_lru = Vec::new();
    let mut gains_drrip = Vec::new();
    let window = oracle_window(&cfg);
    for app in App::ALL {
        // Record the LLC stream once; every policy below replays it, and
        // both oracle runs share one annotation pre-pass.
        let stream = record_stream(&cfg, app.workload(cfg.cores, Scale::Small)).expect("record");
        let ann = compute_annotations(&stream, window);
        let misses = |desc: &ReplayDesc, ann| {
            replay(&cfg, desc, &stream, ann, vec![])
                .expect("replay")
                .llc
                .misses()
        };
        let lru = misses(&ReplayDesc::plain(PolicyKind::Lru), None);
        let o_lru = misses(
            &ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, window),
            Some(&ann),
        );
        let drrip = misses(&ReplayDesc::plain(PolicyKind::Drrip), None);
        let o_drrip = misses(
            &ReplayDesc::oracle(PolicyKind::Drrip, ProtectMode::Eviction, window),
            Some(&ann),
        );
        let g1 = 1.0 - o_lru as f64 / lru.max(1) as f64;
        let g2 = 1.0 - o_drrip as f64 / drrip.max(1) as f64;
        gains_lru.push(g1);
        gains_drrip.push(g2);
        println!(
            "{:<14} {:>12} {:>12} {:>8.1}% | {:>12} {:>12} {:>8.1}%",
            app.label(),
            lru,
            o_lru,
            g1 * 100.0,
            drrip,
            o_drrip,
            g2 * 100.0
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean miss reduction: {:.1}% on LRU, {:.1}% on DRRIP",
        mean(&gains_lru) * 100.0,
        mean(&gains_drrip) * 100.0
    );
    println!("(the paper's abstract reports 6% / 10% on LRU at 4 MB / 8 MB)");
}
