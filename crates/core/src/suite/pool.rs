//! The bounded scoped worker pool shared by the suite runner, the
//! `llc-serve` daemon and every fan-out inside an experiment ([`map`]).
//!
//! The pool is deliberately tiny: `N` scoped OS threads each run the same
//! role closure until it returns. No work queue is imposed — the suite
//! claims pending experiment indices through an atomic counter, while the
//! daemon's roles pull job ids from a channel — so the scheduling policy
//! stays with the caller and the pool only owns thread lifecycle
//! (spawning, naming, joining). `std::thread::scope` means borrowed state
//! (caches, checkpoints, job tables) can be shared without `'static`
//! gymnastics, and the call does not return until every role has.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// [`map`]'s worker cap; 0 means the default (see [`ITEMS_PER_HOST_THREAD`]).
static HOST_THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Workers [`map`] runs per hardware thread by default. Per-app items are
/// uneven and wait on the store (fsynced writes, stream loads), so with
/// one a CPU idles during those waits and at the tail: `serve-warm-mix`
/// set-up ran 7–46% slower than with a thread per app. Two keep the CPUs
/// busy and still bound the live working sets.
const ITEMS_PER_HOST_THREAD: usize = 2;

/// Sets the worker cap of [`map`] — and so of every per-app and
/// sharded-replay fan-out — to `threads`; `None` restores the default.
///
/// A measurement knob, not a tuning knob: `benches/shard.rs` records the
/// 1-thread floor with `Some(1)` (every shard runs inline). The cap is
/// process-global: changing it mid-run only changes how many workers the
/// *next* fan-out spawns, never the computed bits.
pub fn set_host_thread_override(threads: Option<usize>) {
    HOST_THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Computes `f(i)` for every `i` in `0..n` and returns the results in
/// index order. At most `min(n, cap)` workers claim indices from one
/// counter; the cap is two workers per hardware thread, since more
/// threads would only timeslice, each with its own live working set.
/// One worker runs every item inline and spawns nothing.
///
/// A panicking item is re-raised on the caller, with its original
/// payload, after every worker has joined (the others finish the
/// remaining items first), so the suite's `catch_unwind` isolation sees it.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cap = match HOST_THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, |host| host.get()) * ITEMS_PER_HOST_THREAD,
        cap => cap,
    };
    let workers = n.min(cap);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    scoped_workers(workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let item = f(i);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(item);
    });
    // infallible: `scoped_workers` re-raises a worker's panic, so every
    // slot is filled once it returns.
    let filled = |slot: Mutex<Option<T>>| slot.into_inner().ok().flatten().expect("slot filled");
    slots.into_iter().map(filled).collect()
}

/// Runs `role` on `workers` scoped threads and blocks until all of them
/// return. Each invocation receives its worker index (`0..workers`).
///
/// A panicking role is re-raised on the calling thread after every
/// sibling has finished, so the pool never silently swallows a crash —
/// callers wanting isolation run their work under
/// [`run_guarded`](crate::suite::run_guarded) inside the role.
pub fn scoped_workers<F>(workers: usize, role: F)
where
    F: Fn(usize) + Sync,
{
    let role = &role;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                thread::Builder::new()
                    .name(format!("pool-worker-{w}"))
                    .spawn_scoped(scope, move || role(w))
                    // infallible: scoped spawn fails only on OS thread
                    // exhaustion, where the suite cannot proceed anyway.
                    .expect("spawn pool worker")
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_once_with_its_index() {
        let seen = AtomicUsize::new(0);
        scoped_workers(4, |w| {
            seen.fetch_add(1 << (8 * w), Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0x0101_0101);
    }

    #[test]
    fn worker_panics_propagate_after_siblings_finish() {
        let completed = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped_workers(3, |w| {
                if w == 1 {
                    panic!("injected pool panic");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(r.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 2);
    }
}
