//! `per_app` (and every other fan-out through `pool::map`) runs at most
//! the host-thread cap of closures at once, returns results in app
//! order, runs inline with a cap of 1, and re-raises a panicking app
//! after its siblings finish.
//!
//! The cap is process-global, so these tests live in their own
//! integration-test binary (their own process) and take turns on
//! [`CAP`]: the test harness runs them on parallel threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{per_app, set_host_thread_override};

/// Held by every test that sets the host-thread cap.
static CAP: Mutex<()> = Mutex::new(());

/// Sets the cap for one test and restores the default when dropped,
/// even if the test fails.
struct Cap {
    _turn: MutexGuard<'static, ()>,
}

impl Cap {
    fn set(threads: usize) -> Cap {
        let turn = CAP.lock().unwrap_or_else(PoisonError::into_inner);
        set_host_thread_override(Some(threads));
        Cap { _turn: turn }
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        set_host_thread_override(None);
    }
}

#[test]
fn capped_fan_out_never_exceeds_the_cap_and_keeps_app_order() {
    let _cap = Cap::set(2);
    let running = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let labels = per_app(&App::ALL, |app| {
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
        running.fetch_sub(1, Ordering::SeqCst);
        app.label()
    });
    assert_eq!(App::ALL.len(), 16);
    let expected: Vec<_> = App::ALL.iter().map(|a| a.label()).collect();
    assert_eq!(labels, expected);
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= 2, "{peak} closures ran at once under a cap of 2");
}

#[test]
fn a_cap_of_one_runs_every_app_on_the_caller() {
    let _cap = Cap::set(1);
    let caller = std::thread::current().id();
    let threads = per_app(&App::ALL, |_| std::thread::current().id());
    assert!(threads.iter().all(|&t| t == caller));
}

#[test]
fn a_panicking_app_is_re_raised_after_its_siblings_finish() {
    let _cap = Cap::set(2);
    let finished = AtomicUsize::new(0);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        per_app(&App::ALL, |app| {
            if app == App::ALL[3] {
                panic!("injected app panic");
            }
            std::thread::sleep(Duration::from_millis(1));
            finished.fetch_add(1, Ordering::SeqCst);
        })
    }));
    let payload = run.expect_err("the app's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected app panic"));
    assert_eq!(finished.load(Ordering::SeqCst), App::ALL.len() - 1);
}
