//! The replay inner loop must do **zero** telemetry work per access:
//! spans and counters are phase-level only, so a disabled tracer costs
//! nothing on the hot path and an enabled one buffers a constant number
//! of events per replay regardless of stream length.
//!
//! This lives in its own integration-test binary (its own process) so no
//! test elsewhere can flip the process-global span switch under the
//! assertions, and the tests below take turns on [`SPAN_SWITCH`] because
//! the test harness runs them on parallel threads.

use std::sync::{Mutex, PoisonError};

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{record_stream, replay_kind};
use sharing_aware_llc::telemetry::spans;

/// Held by every test that reads or flips the span switch.
static SPAN_SWITCH: Mutex<()> = Mutex::new(());

#[test]
fn disabled_telemetry_is_zero_atomics_per_replay_access() {
    let _switch = SPAN_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = HierarchyConfig::tiny();
    let small = record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Tiny))
        .expect("record small stream");
    let large = record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Small))
        .expect("record large stream");
    assert!(
        large.len() > 2 * small.len(),
        "the two streams must differ in length for the scaling assertions \
         (small {}, large {})",
        small.len(),
        large.len()
    );

    // Disabled (the default): a replay buffers no span events at all, no
    // matter how many accesses it drives.
    assert!(!spans::enabled(), "spans must start disabled");
    let before = spans::event_count();
    let run = replay_kind(&cfg, PolicyKind::Lru, &large, vec![]).expect("replay");
    assert!(run.llc.accesses > 0);
    assert_eq!(
        spans::event_count(),
        before,
        "a disabled tracer must record nothing during replay"
    );

    // Enabled: the event count is per-*phase*, not per-access — replaying
    // a stream twice the length buffers exactly as many events.
    spans::set_enabled(true);
    let before = spans::event_count();
    replay_kind(&cfg, PolicyKind::Lru, &small, vec![]).expect("replay small");
    let per_small = spans::event_count() - before;
    let before = spans::event_count();
    replay_kind(&cfg, PolicyKind::Lru, &large, vec![]).expect("replay large");
    let per_large = spans::event_count() - before;
    spans::set_enabled(false);
    assert_eq!(
        per_small, per_large,
        "span events per replay must be independent of stream length"
    );
    assert!(
        per_large as u64 <= 4,
        "replay must emit a handful of phase-level spans, not {per_large}"
    );
}

#[test]
fn disabled_telemetry_is_zero_atomics_per_record_access() {
    // The record path has the same discipline as replay: one counter bump
    // and one span per *recording*, never per trace record. With spans
    // disabled a recording buffers nothing; enabled, a trace twice the
    // length buffers exactly as many events.
    let _switch = SPAN_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = HierarchyConfig::tiny();
    assert!(!spans::enabled(), "spans must start disabled");
    let before = spans::event_count();
    let stream = record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Small)).expect("record");
    assert!(!stream.is_empty());
    assert_eq!(
        spans::event_count(),
        before,
        "a disabled tracer must record nothing during recording"
    );

    spans::set_enabled(true);
    let before = spans::event_count();
    record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Tiny)).expect("record tiny");
    let per_tiny = spans::event_count() - before;
    let before = spans::event_count();
    record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Small)).expect("record small");
    let per_small = spans::event_count() - before;
    spans::set_enabled(false);
    assert_eq!(
        per_tiny, per_small,
        "span events per recording must be independent of trace length"
    );
    assert!(
        per_small as u64 <= 4,
        "recording must emit a handful of phase-level spans, not {per_small}"
    );
}
