//! The worker pool shared by the suite runner, the `llc-serve` daemon
//! and every fan-out inside an experiment ([`map`]).
//!
//! Two primitives, one thread bound:
//!
//! * [`scoped_workers`] runs `N` scoped OS threads, each running the same
//!   role closure until it returns. No work queue is imposed — the suite
//!   claims pending experiment indices through an atomic counter, while
//!   the daemon's roles pull job ids from a channel — so the scheduling
//!   policy stays with the caller; `--jobs` bounds `N`.
//! * [`map`] fans `n` items out over its caller plus *helper* threads
//!   taken from one process-wide count, bounded by the cap minus one
//!   (the cap is two per hardware thread, see [`set_host_thread_override`]).
//!   Per-app and per-mix items all draw on that count, so nested and
//!   concurrent fan-outs run at most `(top-level callers) + cap − 1`
//!   items at once. Taking helpers never blocks — a fan-out that finds
//!   none runs its items on its caller — so nesting cannot deadlock.
//!
//! `std::thread::scope` means borrowed state (caches, checkpoints, job
//! tables) can be shared without `'static` gymnastics, and neither call
//! returns until every thread it started has.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex, PoisonError};
use std::thread;

/// [`cap`]'s override; 0 means the default (see [`ITEMS_PER_HOST_THREAD`]).
static HOST_THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Helper threads [`map`] calls currently hold, process-wide; at most
/// `cap() − 1` are handed out.
static BUSY_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Items [`map`] runs at once per hardware thread by default. Per-app
/// items are uneven and wait on the store (fsynced writes, stream
/// loads), so with one a CPU idles during those waits and at the tail:
/// `serve-warm-mix` set-up ran 7–46% slower than with a thread per app.
/// Two keep the CPUs busy and still bound the live working sets.
const ITEMS_PER_HOST_THREAD: usize = 2;

/// Sets the pool's cap — a lone fan-out's caller plus `threads − 1`
/// helpers — to `threads`; `None` restores the default of two per
/// hardware thread.
///
/// A measurement knob, not a tuning knob: `Some(1)` gives no helpers, so
/// every item runs on its caller. The cap is process-global: changing it
/// mid-run only changes how many helpers the *next* fan-out may take,
/// never the computed bits.
pub fn set_host_thread_override(threads: Option<usize>) {
    HOST_THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The host's hardware threads, asked once: every [`map`] reads the cap.
static HOST_THREADS: LazyLock<usize> =
    LazyLock::new(|| thread::available_parallelism().map_or(1, |host| host.get()));

/// Items a lone fan-out runs at once: its caller plus `cap − 1` helpers.
fn cap() -> usize {
    match HOST_THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => *HOST_THREADS * ITEMS_PER_HOST_THREAD,
        cap => cap,
    }
}

/// Helper threads currently held by running [`map`] calls, process-wide
/// (0 whenever no fan-out is in flight).
pub fn busy_helpers() -> usize {
    BUSY_HELPERS.load(Ordering::SeqCst)
}

/// One helper taken from [`BUSY_HELPERS`]; given back on drop, so a
/// helper that panics, or whose thread fails to start, is returned too.
struct Helper;

impl Drop for Helper {
    fn drop(&mut self) {
        BUSY_HELPERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Takes up to `max` idle helpers without blocking; possibly none.
fn take_helpers(max: usize) -> Vec<Helper> {
    let limit = cap().saturating_sub(1);
    let take = |busy: usize| limit.saturating_sub(busy).min(max);
    let taken = BUSY_HELPERS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| {
        Some(busy + take(busy)).filter(|&now| now > busy)
    });
    match taken {
        Ok(busy) => (0..take(busy)).map(|_| Helper).collect(),
        Err(_) => Vec::new(),
    }
}

/// Computes `f(i)` for every `i` in `0..n` and returns the results in
/// index order. The caller claims indices from one counter together
/// with up to `min(n − 1, idle)` helper threads taken from the
/// process-wide count (see the module docs); each helper is given back
/// as soon as no index is left to claim. With no helper idle every item
/// runs on the caller and nothing is spawned.
///
/// A panicking item is re-raised on the caller, with its original
/// payload, after every helper has joined (the others finish the
/// remaining items first), so the suite's `catch_unwind` isolation sees it.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let helpers = take_helpers(n.saturating_sub(1));
    if helpers.is_empty() {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let item = f(i);
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(item);
    };
    let work = &work;
    thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .into_iter()
            .enumerate()
            .map(|(w, helper)| {
                thread::Builder::new()
                    .name(format!("pool-helper-{w}"))
                    .spawn_scoped(scope, move || {
                        let _helper = helper;
                        work();
                    })
                    // infallible: scoped spawn fails only on OS thread
                    // exhaustion, where the suite cannot proceed anyway.
                    .expect("spawn pool helper")
            })
            .collect();
        let mine = panic::catch_unwind(AssertUnwindSafe(work));
        for h in handles {
            if let Err(payload) = h.join() {
                panic::resume_unwind(payload);
            }
        }
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
    });
    // infallible: a panicking item was re-raised above, so every slot
    // is filled once the scope returns.
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
