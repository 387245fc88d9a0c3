//! The ambient worker-donation budget behind automatic set-sharded
//! replay.
//!
//! A suite (or the `llc-serve` daemon) knows how many workers the user
//! granted (`--jobs`) and how many are actually busy; whatever is left
//! over is *donated* here as a process-global pool of spare-worker
//! permits. [`crate::replay()`] under [`Exec::Auto`](crate::Exec::Auto)
//! borrows from the pool when it is about to replay a per-set-state
//! policy with no observers attached: `k` borrowed permits turn one
//! sequential replay into a `k + 1`-way set-sharded replay, so a lone
//! runnable experiment still saturates the machine.
//!
//! Borrowing only ever changes *how fast* a replay runs, never what it
//! computes — sharded replay is bit-identical to sequential replay — so
//! the pool needs no fairness or ordering guarantees. A single atomic
//! counter suffices: donations add permits, schedulers reclaim permits
//! when workers become busy again (the count may transiently go
//! negative while both race; borrowers simply see an empty pool), and
//! borrows are returned by an RAII guard. Processes that never donate —
//! unit tests, library users driving [`crate::replay()`] directly — keep
//! an empty pool and always replay sequentially.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, LazyLock};

use llc_telemetry::metrics::{global, Counter, Gauge};

static PERMITS: AtomicIsize = AtomicIsize::new(0);

static SPARE_GAUGE: LazyLock<Arc<Gauge>> = LazyLock::new(|| {
    global().gauge(
        "llc_budget_spare_workers",
        "Spare workers currently donated to the process-global pool and available for borrowing",
    )
});
static BORROWED_TOTAL: LazyLock<Arc<Counter>> = LazyLock::new(|| {
    global().counter(
        "llc_budget_borrowed_workers_total",
        "Workers handed out by budget::borrow over the process lifetime",
    )
});

/// Mirrors the pool into the spare-workers gauge (clamped at zero,
/// matching [`available`]). Called after every pool mutation; the load
/// races benignly with concurrent mutations — the gauge is a sample,
/// not a ledger.
fn sync_gauge() {
    SPARE_GAUGE.set(PERMITS.load(Ordering::SeqCst).max(0) as i64);
}

/// Resets the pool to exactly `permits` spare workers. Schedulers call
/// this once at start-up (suite launch, daemon bind) so permits left
/// over from an earlier run in the same process cannot leak across.
pub fn reset(permits: usize) {
    PERMITS.store(permits as isize, Ordering::SeqCst);
    sync_gauge();
}

/// Donates `n` spare workers to the pool (a suite worker running out of
/// claimable experiments, a daemon job finishing).
pub fn donate(n: usize) {
    PERMITS.fetch_add(n as isize, Ordering::SeqCst);
    sync_gauge();
}

/// Reclaims `n` workers from the pool (a daemon job starting). The
/// count may transiently dip below zero when every spare worker is
/// currently borrowed; it self-corrects as borrows are returned.
pub fn reclaim(n: usize) {
    PERMITS.fetch_sub(n as isize, Ordering::SeqCst);
    sync_gauge();
}

/// Spare workers currently available for borrowing.
pub fn available() -> usize {
    PERMITS.load(Ordering::SeqCst).max(0) as usize
}

/// Borrows up to `max` spare workers, returning an RAII guard that
/// gives them back on drop. May return an empty borrow ([`Borrowed::count`]
/// `== 0`) when the pool is dry.
pub fn borrow(max: usize) -> Borrowed {
    // Saturate before the cast: `usize::MAX as isize` would be negative.
    let max = max.min(isize::MAX as usize) as isize;
    let mut current = PERMITS.load(Ordering::SeqCst);
    loop {
        let take = current.max(0).min(max);
        if take == 0 {
            return Borrowed { taken: 0 };
        }
        match PERMITS.compare_exchange_weak(
            current,
            current - take,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                BORROWED_TOTAL.add(take as u64);
                sync_gauge();
                return Borrowed {
                    taken: take as usize,
                };
            }
            Err(observed) => current = observed,
        }
    }
}

/// Reclaims `n` workers for the lifetime of the returned guard, which
/// donates them back on drop — the panic-safe form of a
/// [`reclaim`]/[`donate`] pair. Schedulers wrap each busy worker in one
/// of these so a panicking (or early-returning) job body can never leak
/// its permit out of the pool.
pub fn reclaim_scoped(n: usize) -> Reclaimed {
    reclaim(n);
    Reclaimed { taken: n }
}

/// An RAII reclaim of workers; donates them back to the pool on drop.
#[derive(Debug)]
pub struct Reclaimed {
    taken: usize,
}

impl Reclaimed {
    /// Number of workers this guard holds out of the pool.
    pub fn count(&self) -> usize {
        self.taken
    }
}

impl Drop for Reclaimed {
    fn drop(&mut self) {
        if self.taken > 0 {
            donate(self.taken);
        }
    }
}

/// A borrow of spare workers; returns them to the pool on drop.
#[derive(Debug)]
pub struct Borrowed {
    taken: usize,
}

impl Borrowed {
    /// Number of workers actually borrowed (possibly zero).
    pub fn count(&self) -> usize {
        self.taken
    }
}

impl Drop for Borrowed {
    fn drop(&mut self) {
        if self.taken > 0 {
            donate(self.taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool is process-global, so these tests serialize behind one
    // lock to avoid observing each other's permits.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn borrow_is_capped_by_pool_and_request() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset(3);
        let a = borrow(2);
        assert_eq!(a.count(), 2);
        let b = borrow(5);
        assert_eq!(b.count(), 1);
        let c = borrow(1);
        assert_eq!(c.count(), 0);
        drop(a);
        assert_eq!(available(), 2);
        drop(b);
        drop(c);
        assert_eq!(available(), 3);
        reset(0);
    }

    #[test]
    fn reclaim_may_go_negative_and_recovers() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset(1);
        let a = borrow(1);
        assert_eq!(a.count(), 1);
        reclaim(1); // pool now at -1
        assert_eq!(available(), 0);
        drop(a); // returns the borrow: pool back to 0
        assert_eq!(available(), 0);
        donate(1);
        assert_eq!(available(), 1);
        reset(0);
    }

    #[test]
    fn empty_pool_always_replays_sequentially() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset(0);
        assert_eq!(borrow(8).count(), 0);
    }

    #[test]
    fn reclaim_scoped_returns_permits_even_on_unwind() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset(4);
        {
            let held = reclaim_scoped(3);
            assert_eq!(held.count(), 3);
            assert_eq!(available(), 1);
        }
        assert_eq!(available(), 4, "drop donates the permits back");
        let unwound = std::panic::catch_unwind(|| {
            let _held = reclaim_scoped(2);
            panic!("job body panics");
        });
        assert!(unwound.is_err());
        assert_eq!(available(), 4, "a panicking holder cannot leak permits");
        reset(0);
    }

    #[test]
    fn unbounded_borrow_request_saturates() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset(2);
        let a = borrow(usize::MAX);
        assert_eq!(a.count(), 2);
        drop(a);
        assert_eq!(available(), 2);
        reset(0);
    }
}
