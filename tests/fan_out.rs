//! `per_app` (and every other fan-out through `pool::map`) runs on its
//! caller plus helper threads taken from one process-wide count bounded
//! by the cap minus one: a lone fan-out runs at most the cap of closures
//! at once, concurrent and nested fan-outs share the same helpers, a cap
//! of 1 runs everything on the caller, a panicking app is re-raised
//! after its siblings finish, and every helper is given back.
//!
//! The cap and the helper count are process-global, so these tests live
//! in their own integration-test binary (their own process) and take
//! turns on [`CAP`]: the test harness runs them on parallel threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{busy_helpers, per_app, set_host_thread_override};

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

/// The most closures that ran at once through [`Peak::run`].
#[derive(Default)]
struct Peak {
    running: AtomicUsize,
    peak: AtomicUsize,
}

impl Peak {
    /// Runs one closure body: counted while it sleeps for `ms`.
    fn run(&self, ms: u64) {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(ms));
        self.running.fetch_sub(1, Ordering::SeqCst);
    }

    fn get(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

#[test]
fn capped_fan_out_never_exceeds_the_cap_and_keeps_app_order() {
    let _cap = Cap::set(2);
    let peak = Peak::default();
    let labels = per_app(&App::ALL, |app| {
        peak.run(2);
        app.label()
    });
    assert_eq!(App::ALL.len(), 16);
    let expected: Vec<_> = App::ALL.iter().map(|a| a.label()).collect();
    assert_eq!(labels, expected);
    let peak = peak.get();
    assert!(peak <= 2, "{peak} closures ran at once under a cap of 2");
}

#[test]
fn a_cap_of_one_runs_every_app_on_the_caller() {
    let _cap = Cap::set(1);
    let caller = std::thread::current().id();
    let threads = per_app(&App::ALL, |_| std::thread::current().id());
    assert!(threads.iter().all(|&t| t == caller));
}

/// Two suite workers (`--jobs 2`) each fanning out their apps run at
/// most their two callers plus `cap − 1` shared helpers at once.
#[test]
fn concurrent_fan_outs_share_one_helper_count() {
    let cap = 3;
    let _cap = Cap::set(cap);
    let peak = Peak::default();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                per_app(&App::ALL, |_| peak.run(2));
            });
        }
    });
    // Two callers plus `cap − 1` helpers.
    let peak = peak.get();
    assert!(
        peak <= cap + 1,
        "{peak} closures ran at once from two callers under a cap of {cap}"
    );
    assert_eq!(busy_helpers(), 0);
}

/// A fan-out inside a fan-out's item takes its helpers from the same
/// count, so the whole tree runs at most `1 + cap − 1` closures at once.
#[test]
fn a_nested_fan_out_never_exceeds_the_cap() {
    let cap = 3;
    let _cap = Cap::set(cap);
    let peak = Peak::default();
    per_app(&App::ALL[..4], |_| per_app(&App::ALL, |_| peak.run(1)));
    let peak = peak.get();
    assert!(
        peak <= cap,
        "{peak} nested closures ran at once under a cap of {cap}"
    );
    assert_eq!(busy_helpers(), 0);
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
    assert_eq!(busy_helpers(), 0, "a panicking item gives its helper back");
}
