//! The paper's negative result, interactively: train the two realistic
//! fill-time sharing predictors on every workload and print their
//! confusion-matrix scores next to the trivial baselines.
//!
//! ```text
//! cargo run --release --example predictor_accuracy [app ...]
//! ```

use sharing_aware_llc::prelude::*;

fn main() {
    let apps: Vec<App> = {
        let named: Vec<App> = std::env::args()
            .skip(1)
            .map(|s| App::parse(&s).unwrap_or_else(|| panic!("unknown app '{s}'")))
            .collect();
        if named.is_empty() {
            App::ALL.to_vec()
        } else {
            named
        }
    };
    let cfg = HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_mib(1, 16).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    };
    println!("machine: {cfg}");
    println!("predicting at fill time whether the new generation will be shared\n");

    for app in apps {
        println!("== {app} ({} sharing) ==", app.sharing_class());
        for kind in [
            PredictorKind::Address,
            PredictorKind::Pc,
            PredictorKind::Tournament,
            PredictorKind::NeverShared,
            PredictorKind::AlwaysShared,
        ] {
            let mut study = PredictorStudy::new(build_predictor(kind));
            simulate(
                &cfg,
                &ReplayDesc::plain(PolicyKind::Lru),
                &mut || app.workload(cfg.cores, Scale::Small),
                vec![&mut study],
            )
            .expect("run");
            println!("  {:<12} {}", kind.label(), study.matrix());
        }
        println!();
    }
    println!("Read the MCC column: a usable predictor needs a solidly positive MCC;");
    println!("the paper concludes address/PC history alone does not get there.");
}
