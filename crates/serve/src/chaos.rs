//! Deterministic fault injection for the daemon — the serve-level
//! sibling of [`llc_trace::fault`].
//!
//! The trace-layer `FaultPlan` corrupts *bytes*; this layer injects
//! faults at the daemon's seams: admission (spurious queue-full),
//! execution (a worker body that panics), and the result store (reads
//! and writes that fail with a typed error). Each fault point fires on a
//! pseudo-random schedule derived purely from a seed and a per-point
//! call counter, so a failing chaos run replays bit-identically from
//! its seed — the same property the simulator itself guarantees.
//!
//! The production daemon runs with no plan installed
//! ([`ServerConfig::chaos`](crate::ServerConfig) is `None`); the chaos
//! harness in `tests/serve_chaos.rs` installs one and then asserts the
//! daemon's *contract* under fire: every request is answered with a
//! well-formed response (typed 4xx/5xx at worst), no worker wedges, and
//! the store never holds a corrupt entry outside `quarantine/`.

use std::sync::atomic::{AtomicU64, Ordering};

use llc_sim::splitmix64;

/// The seams where a [`ChaosPlan`] can inject a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Admission control reports the queue full even though it is not
    /// (the client sees a legitimate-looking 429).
    QueueFull,
    /// The job body panics mid-run (exercises `catch_unwind` + the
    /// in-flight accounting unwind paths).
    WorkerPanic,
    /// A result-store read fails with a typed error (exercises the
    /// recompute-on-corruption path).
    StoreRead,
    /// A result-store write fails with a typed error (exercises the
    /// persist-failure path; the job must fail cleanly, not wedge).
    StoreWrite,
}

impl ChaosPoint {
    const ALL: [ChaosPoint; 4] = [
        ChaosPoint::QueueFull,
        ChaosPoint::WorkerPanic,
        ChaosPoint::StoreRead,
        ChaosPoint::StoreWrite,
    ];

    fn index(self) -> usize {
        match self {
            ChaosPoint::QueueFull => 0,
            ChaosPoint::WorkerPanic => 1,
            ChaosPoint::StoreRead => 2,
            ChaosPoint::StoreWrite => 3,
        }
    }

    /// The point's label (used in injected error messages so a chaos
    /// failure is distinguishable from an organic one).
    pub fn label(self) -> &'static str {
        match self {
            ChaosPoint::QueueFull => "queue-full",
            ChaosPoint::WorkerPanic => "worker-panic",
            ChaosPoint::StoreRead => "store-read",
            ChaosPoint::StoreWrite => "store-write",
        }
    }
}

/// A seeded fault schedule over the daemon's [`ChaosPoint`]s.
///
/// Whether the `n`-th *evaluation* of a given point fires depends only
/// on `(seed, point, n)`, never on timing or thread interleaving of
/// *other* points — each point keeps its own counter.
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    /// Fire rate per point, in percent (0 disables the point).
    rates: [u8; 4],
    counters: [AtomicU64; 4],
}

impl ChaosPlan {
    /// A plan with every point's rate derived from `seed` (each lands in
    /// 10..=35%) — different seeds exercise different failure mixes.
    pub fn from_seed(seed: u64) -> ChaosPlan {
        let mut rates = [0u8; 4];
        for point in ChaosPoint::ALL {
            let i = point.index();
            rates[i] = (10 + splitmix64(seed ^ (0xC0A5 + i as u64)) % 26) as u8;
        }
        ChaosPlan {
            seed,
            rates,
            counters: Default::default(),
        }
    }

    /// Overrides one point's fire rate (percent, clamped to 100).
    #[must_use]
    pub fn with_rate(mut self, point: ChaosPoint, percent: u8) -> ChaosPlan {
        self.rates[point.index()] = percent.min(100);
        self
    }

    /// A plan that never fires — useful as an explicit "chaos off"
    /// baseline inside the harness.
    pub fn quiet(seed: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::from_seed(seed);
        plan.rates = [0; 4];
        plan
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Evaluates `point` once: advances its counter and reports whether
    /// this evaluation injects a fault.
    pub fn fire(&self, point: ChaosPoint) -> bool {
        let i = point.index();
        let rate = u64::from(self.rates[i]);
        if rate == 0 {
            return false;
        }
        let n = self.counters[i].fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(self.seed ^ ((i as u64 + 1) << 32) ^ n);
        draw % 100 < rate
    }

    /// How many times `point` has been evaluated so far.
    pub fn evaluations(&self, point: ChaosPoint) -> u64 {
        self.counters[point.index()].load(Ordering::Relaxed)
    }
}

/// Renders a deliberately *truncated* `POST /jobs` request: the head
/// declares `Content-Length` for the full `body`, but only a seeded
/// prefix of it is included. Feeding these to a live daemon checks that
/// a client dying mid-upload gets a clean protocol error, never a hung
/// or poisoned connection handler.
pub fn truncated_submit(seed: u64, body: &str) -> Vec<u8> {
    let keep = if body.is_empty() {
        0
    } else {
        (splitmix64(seed ^ 0x7275_4e43) % body.len() as u64) as usize
    };
    let mut raw = format!(
        "POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(&body.as_bytes()[..keep]);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let a = ChaosPlan::from_seed(seed);
            let b = ChaosPlan::from_seed(seed);
            let run = |p: &ChaosPlan| {
                (0..200)
                    .map(|_| p.fire(ChaosPoint::StoreRead))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(&a), run(&b), "seed {seed}");
            assert_eq!(a.evaluations(ChaosPoint::StoreRead), 200);
        }
    }

    #[test]
    fn points_have_independent_counters() {
        let a = ChaosPlan::from_seed(42);
        let b = ChaosPlan::from_seed(42);
        // Interleave evaluations of another point on `a` only; the
        // StoreWrite schedule must be unaffected.
        let run_a: Vec<bool> = (0..100)
            .map(|_| {
                a.fire(ChaosPoint::QueueFull);
                a.fire(ChaosPoint::StoreWrite)
            })
            .collect();
        let run_b: Vec<bool> = (0..100).map(|_| b.fire(ChaosPoint::StoreWrite)).collect();
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn rates_bound_firing() {
        let never = ChaosPlan::from_seed(3).with_rate(ChaosPoint::WorkerPanic, 0);
        assert!((0..500).all(|_| !never.fire(ChaosPoint::WorkerPanic)));
        let always = ChaosPlan::from_seed(3).with_rate(ChaosPoint::WorkerPanic, 100);
        assert!((0..500).all(|_| always.fire(ChaosPoint::WorkerPanic)));
        let quiet = ChaosPlan::quiet(99);
        for point in ChaosPoint::ALL {
            assert!(!quiet.fire(point));
        }
        // Derived rates actually fire sometimes at defaults.
        let some = ChaosPlan::from_seed(3);
        assert!(
            (0..500)
                .filter(|_| some.fire(ChaosPoint::StoreRead))
                .count()
                > 0
        );
    }

    #[test]
    fn truncated_submit_drops_a_seeded_suffix() {
        let body = "{\"experiment\":\"fig7\",\"preset\":\"test\"}";
        let raw = truncated_submit(11, body);
        let text = String::from_utf8(raw.clone()).expect("ascii");
        assert!(text.contains(&format!("Content-Length: {}", body.len())));
        let sent = text.split("\r\n\r\n").nth(1).expect("body part");
        assert!(sent.len() < body.len(), "must actually truncate");
        assert_eq!(raw, truncated_submit(11, body), "deterministic");
        assert!(String::from_utf8(truncated_submit(12, body))
            .expect("ascii")
            .starts_with("POST /jobs"));
    }
}
