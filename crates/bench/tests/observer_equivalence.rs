//! The Fx-keyed observers count exactly what their `std::HashMap`
//! predecessors counted.
//!
//! [`VictimizationStats`] keeps one per-block state map and
//! [`SharingProfile`] an Fx-hashed footprint. The old implementations
//! (`llc_bench::siphash_observers`: two SipHash maps for the
//! victimization window, one for the footprint) ride the same replay as
//! the new ones, for every policy over every recorded test-preset
//! stream.

use llc_bench::siphash_observers::{
    self as old, assert_profile_matches, assert_victimization_matches,
};
use llc_policies::PolicyKind;
use llc_sharing::{replay, ExperimentCtx, ReplayDesc, SharingProfile, VictimizationStats};
use llc_sim::LlcObserver;

#[test]
fn fx_observers_count_what_the_siphash_observers_counted() {
    let ctx = ExperimentCtx::test();
    let mut policies = PolicyKind::REALISTIC.to_vec();
    policies.push(PolicyKind::Opt);
    for &capacity in &ctx.llc_capacities {
        let cfg = ctx.config(capacity).expect("config");
        for &app in &ctx.apps {
            let stream = ctx.stream(app, &cfg).expect("stream");
            for &kind in &policies {
                let what = format!("{app} {kind} {} KB", capacity >> 10);
                // The paper's window and a short one that most refills
                // miss.
                let windows = [64 * cfg.llc.ways as u64, cfg.llc.ways as u64];
                let mut new_victims = windows.map(VictimizationStats::new);
                let mut old_victims = windows.map(old::Victimization::new);
                let mut new_profile = SharingProfile::new();
                let mut old_profile = old::Profile::new();
                let mut observers: Vec<&mut dyn LlcObserver> =
                    vec![&mut new_profile, &mut old_profile];
                for (new, old) in new_victims.iter_mut().zip(&mut old_victims) {
                    observers.push(new);
                    observers.push(old);
                }
                replay(&cfg, &ReplayDesc::plain(kind), &stream, None, observers).expect("replay");
                for (new, old) in new_victims.iter().zip(&old_victims) {
                    let what = format!("{what} window {}", old.window());
                    assert_victimization_matches(new, old, &what);
                    assert!(old.evictions() > 0, "{what}: the stream evicts");
                }
                assert_profile_matches(&new_profile, &old_profile, &what);
                new_profile.compact();
                assert_profile_matches(&new_profile, &old_profile, &format!("{what} compacted"));
            }
        }
    }
}
