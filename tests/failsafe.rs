//! Fail-safe pipeline integration tests: corrupted traces must surface as
//! typed errors (never panics) all the way through the simulator driver,
//! and the suite runner must isolate crashes and resume from checkpoints.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sharing_aware_llc::ingest::{write_binary_trace, BinaryTraceSource};
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::trace::{
    CorruptingReader, Fault, FaultInjectingSource, FaultPlan, VecSource,
};

fn test_cfg(cores: usize) -> HierarchyConfig {
    HierarchyConfig {
        cores,
        l1: CacheConfig::from_kib(2, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(64, 8).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// An LLCB trace of `app` running on `cores` cores.
fn recorded(app: App, cores: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_binary_trace(app.workload(cores, Scale::Tiny), &mut bytes).expect("encode");
    bytes
}

#[test]
fn truncated_trace_surfaces_as_typed_error_through_the_driver() {
    let bytes = recorded(App::Fft, 4);
    let cut = bytes.len() - 7; // mid-record
    let cfg = test_cfg(4);
    let err = simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || BinaryTraceSource::new(&bytes[..cut]).expect("header intact"),
        vec![],
    )
    .expect_err("driver must report the truncation");
    match err {
        RunError::Trace(TraceError::Truncated { .. }) => {}
        other => panic!("expected RunError::Trace(Truncated), got {other}"),
    }
}

#[test]
fn corrupted_traces_never_panic_the_driver() {
    let bytes = recorded(App::Bodytrack, 4);
    let cfg = test_cfg(4);
    for seed in 0..50u64 {
        let plan = FaultPlan::random_bit_flips(seed, bytes.len() as u64, 4);
        // Either the header is rejected up front or the run ends in
        // Ok/typed Err; a panic anywhere fails the test.
        if let Ok(src) = BinaryTraceSource::new(CorruptingReader::new(bytes.as_slice(), &plan)) {
            let full = bytes.clone();
            let p2 = plan.clone();
            let _ = simulate(
                &cfg,
                &ReplayDesc::plain(PolicyKind::Lru),
                &mut || {
                    BinaryTraceSource::new(CorruptingReader::new(full.as_slice(), &p2))
                        .expect("checked above")
                },
                vec![],
            );
            drop(src);
        }
    }
}

#[test]
fn replaying_a_wider_trace_on_a_narrower_machine_is_a_typed_error() {
    // Recorded on 8 cores, replayed against a 4-core hierarchy: the
    // decoder must reject the first record from core >= 4 instead of
    // letting it corrupt per-core state downstream.
    let bytes = recorded(App::Ocean, 8);
    let cfg = test_cfg(4);
    let err = simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || {
            BinaryTraceSource::new(bytes.as_slice())
                .expect("header intact")
                .with_core_limit(cfg.cores)
        },
        vec![],
    )
    .expect_err("8-core trace must not replay on a 4-core machine");
    match err {
        RunError::Trace(TraceError::CoreOutOfRange { core, limit, .. }) => {
            assert!(core >= 4, "rejected core {core}");
            assert_eq!(limit, 4);
        }
        other => panic!("expected CoreOutOfRange, got {other}"),
    }
}

#[test]
fn record_level_faults_are_caught_by_the_writer() {
    let accesses: Vec<MemAccess> = {
        let mut src = App::Fft.workload(4, Scale::Tiny);
        std::iter::from_fn(move || src.next_access())
            .take(100)
            .collect()
    };
    let plan = FaultPlan::new().with(Fault::DropRecord { index: 42 });
    let faulty = FaultInjectingSource::new(VecSource::new(accesses), &plan);
    let mut out = Vec::new();
    let err = write_binary_trace(faulty, &mut out).expect_err("dropped record must be caught");
    assert!(matches!(
        err,
        TraceError::CountMismatch {
            declared: 100,
            written: 99
        }
    ));
}

#[test]
fn suite_isolates_a_panicking_experiment_and_finishes_the_rest() {
    let ctx = ExperimentCtx::test();
    let config = SuiteConfig {
        timeout: Some(Duration::from_secs(30)),
        manifest_path: None,
        ..SuiteConfig::default()
    };
    let ids = [ExperimentId::Table1, ExperimentId::Fig1, ExperimentId::Fig3];
    let report = run_suite_with(&ids, &ctx, &config, |id, _| {
        if id == ExperimentId::Fig1 {
            panic!("injected mid-suite crash");
        }
        Ok(vec![Table::new("ok", &["col"])])
    })
    .expect("suite itself must not fail");
    assert_eq!(report.outcomes.len(), 3, "every experiment gets an outcome");
    assert_eq!(
        report.completed(),
        2,
        "siblings of the crash still complete"
    );
    assert_eq!(report.failed(), 1);
    let summary = report.summary().to_string();
    assert!(summary.contains("FAILED"));
    assert!(summary.contains("injected mid-suite crash"));
}

#[test]
fn killed_suite_resumes_from_checkpoint_without_recomputing() {
    let manifest =
        std::env::temp_dir().join(format!("llc-failsafe-resume-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let config = SuiteConfig {
        manifest_path: Some(manifest.clone()),
        ..SuiteConfig::default()
    };
    let ctx = ExperimentCtx::test();
    let ids = [ExperimentId::Table1, ExperimentId::Fig1, ExperimentId::Fig3];

    // First invocation "dies" partway: table1 and fig1 complete (and are
    // checkpointed), fig3 panics — standing in for a killed process whose
    // manifest survived.
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    let report = run_suite_with(&ids, &ctx, &config, move |id, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        if id == ExperimentId::Fig3 {
            panic!("process killed here");
        }
        Ok(vec![Table::new(
            format!("result of {}", id.label()),
            &["col"],
        )])
    })
    .expect("first invocation");
    assert_eq!(report.completed(), 2);
    assert_eq!(runs.load(Ordering::SeqCst), 3);

    // Second invocation: the two checkpointed experiments must be
    // replayed from the manifest — the closure counts how often it is
    // actually invoked, so recomputation would be visible.
    let runs2 = Arc::new(AtomicUsize::new(0));
    let counter2 = Arc::clone(&runs2);
    let report = run_suite_with(&ids, &ctx, &config, move |id, _| {
        counter2.fetch_add(1, Ordering::SeqCst);
        Ok(vec![Table::new(
            format!("result of {}", id.label()),
            &["col"],
        )])
    })
    .expect("second invocation");
    assert_eq!(runs2.load(Ordering::SeqCst), 1, "only fig3 is recomputed");
    assert_eq!(report.resumed(), 2);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.failed(), 0);
    let t1 = report.outcomes[0].1.tables().expect("resumed tables");
    assert_eq!(
        t1[0].title, "result of table1",
        "checkpointed content survives"
    );
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn watchdog_reaps_a_hung_experiment_and_the_suite_continues() {
    let ctx = ExperimentCtx::test();
    let config = SuiteConfig {
        timeout: Some(Duration::from_millis(100)),
        manifest_path: None,
        ..SuiteConfig::default()
    };
    let ids = [ExperimentId::Fig1, ExperimentId::Fig3];
    let report = run_suite_with(&ids, &ctx, &config, |id, _| {
        if id == ExperimentId::Fig1 {
            std::thread::sleep(Duration::from_secs(120));
        }
        Ok(vec![Table::new("ok", &["col"])])
    })
    .expect("suite runs");
    assert_eq!(report.failed(), 1);
    assert_eq!(report.completed(), 1, "the suite outlives the hang");
    match &report.outcomes[0].1 {
        ExperimentOutcome::Failed { reason } => {
            assert!(reason.contains("time budget"), "got: {reason}")
        }
        other => panic!("expected timeout failure, got {other:?}"),
    }
}

#[test]
fn real_experiment_suite_checkpoints_and_resumes() {
    // End-to-end with the real `run_experiment`: a tiny two-app context
    // keeps this fast while exercising the exact code path `repro --out
    // --resume` uses, including OPT/oracle pre-pass recomputation being
    // skipped on resume.
    let manifest =
        std::env::temp_dir().join(format!("llc-failsafe-real-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let mut ctx = ExperimentCtx::test();
    ctx.apps.truncate(2);
    let config = SuiteConfig {
        manifest_path: Some(manifest.clone()),
        ..SuiteConfig::default()
    };
    let ids = [ExperimentId::Table1, ExperimentId::Fig7];
    let first = run_suite(&ids, &ctx, &config).expect("first real run");
    assert_eq!(first.completed(), 2);
    assert_eq!(first.failed(), 0);

    let second = run_suite(&ids, &ctx, &config).expect("resumed real run");
    assert_eq!(second.resumed(), 2, "everything replays from the manifest");
    // Checkpointed tables must match the originally computed ones.
    let orig = first.outcomes[1].1.tables().expect("fig7 tables");
    let replay = second.outcomes[1].1.tables().expect("fig7 tables");
    assert_eq!(orig.len(), replay.len());
    assert_eq!(orig[0].title, replay[0].title);
    assert_eq!(orig[0].rows, replay[0].rows);
    let _ = std::fs::remove_file(&manifest);
}
