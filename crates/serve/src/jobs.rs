//! The in-memory job table: submission, state transitions, cancellation
//! and the daemon's service counters.
//!
//! Jobs are ephemeral (a restart empties the table); the *artifacts* —
//! streams and result tables — live in the persistent stores, which is
//! why a re-submitted spec after a restart is still a store hit.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::time::{Duration, Instant};

use llc_telemetry::metrics::{global, Counter};

use crate::spec::JobSpec;

/// `llc_jobs_total{state=...}` — one series per lifecycle milestone
/// (`submitted` on accept, the terminal labels as jobs finish).
struct JobMetrics {
    submitted: Arc<Counter>,
    done: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
}

static METRICS: LazyLock<JobMetrics> = LazyLock::new(|| {
    let series = |state| {
        global().counter_with(
            "llc_jobs_total",
            "Jobs by lifecycle milestone (submitted on accept, terminal states on finish)",
            &[("state", state)],
        )
    };
    JobMetrics {
        submitted: series("submitted"),
        done: series("done"),
        failed: series("failed"),
        cancelled: series("cancelled"),
    }
});

/// A job's identifier, unique within one daemon process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; tables are in the result store.
    Done {
        /// `true` if the result was served from the persistent store
        /// without touching the simulator.
        from_store: bool,
    },
    /// The run produced a typed error (recorded verbatim).
    Failed {
        /// Human-readable failure description.
        reason: String,
    },
    /// Cancelled via `DELETE /jobs/{id}`.
    Cancelled,
}

impl JobState {
    /// The state's wire label (`queued`, `running`, `done`, `failed`,
    /// `cancelled`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// `true` once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// The validated submission.
    pub spec: JobSpec,
    /// The spec's content-address in the result store.
    pub fingerprint: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Cooperative cancellation flag, shared with the executing worker.
    pub cancel: Arc<AtomicBool>,
    /// When `POST /jobs` accepted the job (queue-wait telemetry).
    pub submitted_at: Instant,
}

/// Monotone service counters, exposed via `GET /store/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Jobs accepted by `POST /jobs`.
    pub submitted: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: u64,
    /// Jobs answered from the persistent result store (no simulation).
    pub result_hits: u64,
    /// Jobs that actually ran the simulator.
    pub simulated: u64,
    /// Stored results that failed to decode and were recomputed.
    pub result_errors: u64,
    /// Submissions refused by admission control (429/503 answers).
    pub rejected: u64,
    /// Jobs failed because their deadline lapsed (queued or running).
    pub expired: u64,
    /// Corrupt result-store entries moved to `quarantine/`.
    pub quarantined: u64,
}

/// The daemon's shared job table.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Notified, under the `jobs` lock, whenever a job reaches a
    /// terminal state: the long-poll and the drain wait on it.
    finished: Condvar,
    next: AtomicU64,
    counters: Mutex<JobCounters>,
    /// Jobs admitted but not yet terminal (queued + running). This is
    /// the quantity admission control caps — the table itself keeps
    /// terminal records around for status queries.
    inflight: AtomicU64,
}

fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl JobTable {
    /// An empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Registers a new queued job and returns its record.
    pub fn submit(&self, spec: JobSpec, fingerprint: u64) -> JobRecord {
        let id = JobId(self.next.fetch_add(1, Ordering::Relaxed) + 1);
        let record = JobRecord {
            id,
            spec,
            fingerprint,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            submitted_at: Instant::now(),
        };
        lock_recovering(&self.jobs).insert(id.0, record.clone());
        lock_recovering(&self.counters).submitted += 1;
        self.inflight.fetch_add(1, Ordering::Relaxed);
        METRICS.submitted.inc();
        record
    }

    /// A snapshot of job `id`, if it exists.
    pub fn get(&self, id: JobId) -> Option<JobRecord> {
        lock_recovering(&self.jobs).get(&id.0).cloned()
    }

    /// Moves job `id` into `state`, unless it already reached a terminal
    /// state (a worker finishing an abandoned, cancelled job must not
    /// resurrect it). Returns the state now in effect.
    pub fn transition(&self, id: JobId, state: JobState) -> Option<JobState> {
        let mut jobs = lock_recovering(&self.jobs);
        let record = jobs.get_mut(&id.0)?;
        if !record.state.is_terminal() {
            if state.is_terminal() {
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                self.finished.notify_all();
            }
            match &state {
                JobState::Done { .. } => {
                    lock_recovering(&self.counters).completed += 1;
                    METRICS.done.inc();
                }
                JobState::Failed { .. } => {
                    lock_recovering(&self.counters).failed += 1;
                    METRICS.failed.inc();
                }
                JobState::Cancelled => {
                    lock_recovering(&self.counters).cancelled += 1;
                    METRICS.cancelled.inc();
                }
                _ => {}
            }
            record.state = state;
        }
        Some(record.state.clone())
    }

    /// Cancels job `id`: a queued or running job becomes `Cancelled` (a
    /// running worker sees the flag and abandons its guarded thread); a
    /// terminal job is left untouched. Returns the state now in effect.
    pub fn cancel(&self, id: JobId) -> Option<JobState> {
        let flag = self.get(id)?.cancel;
        flag.store(true, Ordering::Relaxed);
        self.transition(id, JobState::Cancelled)
    }

    /// Waits until job `id` is terminal or `timeout` has passed, and
    /// returns its snapshot then (`None` if there is no such job).
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobRecord> {
        let (jobs, _) = self
            .finished
            .wait_timeout_while(lock_recovering(&self.jobs), timeout, |jobs| {
                jobs.get(&id.0).is_some_and(|r| !r.state.is_terminal())
            })
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        jobs.get(&id.0).cloned()
    }

    /// Waits until no job is in flight or `timeout` has passed; `true`
    /// if the table went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let (_jobs, waited) = self
            .finished
            .wait_timeout_while(lock_recovering(&self.jobs), timeout, |_| {
                self.inflight() > 0
            })
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        !waited.timed_out()
    }

    /// A snapshot of the service counters.
    pub fn counters(&self) -> JobCounters {
        *lock_recovering(&self.counters)
    }

    /// Bumps one counter through `f`.
    pub fn count(&self, f: impl FnOnce(&mut JobCounters)) {
        f(&mut lock_recovering(&self.counters));
    }

    /// Jobs admitted and not yet terminal (queued + running) — the
    /// quantity `--max-inflight` caps.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// A snapshot of every job still in [`JobState::Queued`] — the
    /// shutdown path checkpoints these specs to the store so queued work
    /// survives a drain.
    pub fn queued_specs(&self) -> Vec<(JobId, JobSpec)> {
        let jobs = lock_recovering(&self.jobs);
        let mut queued: Vec<(JobId, JobSpec)> = jobs
            .values()
            .filter(|r| r.state == JobState::Queued)
            .map(|r| (r.id, r.spec.clone()))
            .collect();
        queued.sort_by_key(|(id, _)| id.0);
        queued
    }

    /// Ids of every job currently [`JobState::Running`].
    pub fn running_ids(&self) -> Vec<JobId> {
        lock_recovering(&self.jobs)
            .values()
            .filter(|r| r.state == JobState::Running)
            .map(|r| r.id)
            .collect()
    }

    /// Number of jobs ever submitted.
    pub fn len(&self) -> usize {
        lock_recovering(&self.jobs).len()
    }

    /// `true` if no job was ever submitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sharing::ExperimentId;

    fn spec() -> JobSpec {
        JobSpec::new(ExperimentId::Table1, "test")
    }

    #[test]
    fn submit_get_and_transition() {
        let table = JobTable::new();
        assert!(table.is_empty());
        let a = table.submit(spec(), 1);
        let b = table.submit(spec(), 2);
        assert_ne!(a.id, b.id);
        assert_eq!(table.get(a.id).expect("present").state, JobState::Queued);
        assert_eq!(
            table.transition(a.id, JobState::Running),
            Some(JobState::Running)
        );
        assert_eq!(
            table.transition(a.id, JobState::Done { from_store: false }),
            Some(JobState::Done { from_store: false })
        );
        assert!(table.get(JobId(999)).is_none());
        assert!(table.transition(JobId(999), JobState::Running).is_none());
        let c = table.counters();
        assert_eq!((c.submitted, c.completed), (2, 1));
    }

    #[test]
    fn terminal_states_stick() {
        let table = JobTable::new();
        let job = table.submit(spec(), 1);
        table.cancel(job.id);
        assert!(job.cancel.load(Ordering::Relaxed) || table.get(job.id).is_some());
        // A worker finishing the abandoned run must not resurrect it.
        assert_eq!(
            table.transition(job.id, JobState::Done { from_store: false }),
            Some(JobState::Cancelled)
        );
        let c = table.counters();
        assert_eq!((c.cancelled, c.completed), (1, 0));
    }

    #[test]
    fn inflight_tracks_admitted_minus_terminal() {
        let table = JobTable::new();
        let a = table.submit(spec(), 1);
        let b = table.submit(spec(), 2);
        assert_eq!(table.inflight(), 2);
        table.transition(a.id, JobState::Running);
        assert_eq!(table.inflight(), 2, "running jobs are still in flight");
        table.transition(a.id, JobState::Done { from_store: false });
        assert_eq!(table.inflight(), 1);
        // A late transition on an already-terminal job must not
        // double-decrement.
        table.transition(a.id, JobState::Cancelled);
        assert_eq!(table.inflight(), 1);
        table.cancel(b.id);
        assert_eq!(table.inflight(), 0);
    }

    #[test]
    fn waits_end_at_the_terminal_transition_or_the_timeout() {
        let table = JobTable::new();
        let job = table.submit(spec(), 1);
        let started = Instant::now();
        let snapshot = table
            .wait_terminal(job.id, Duration::from_millis(30))
            .expect("present");
        assert_eq!(snapshot.state, JobState::Queued);
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!table.wait_idle(Duration::from_millis(1)));
        assert!(table
            .wait_terminal(JobId(999), Duration::from_secs(60))
            .is_none());

        let started = Instant::now();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| table.wait_terminal(job.id, Duration::from_secs(60)));
            let idle = s.spawn(|| table.wait_idle(Duration::from_secs(60)));
            table.transition(job.id, JobState::Running);
            table.transition(job.id, JobState::Done { from_store: false });
            let snapshot = waiter.join().expect("waiter").expect("present");
            assert_eq!(snapshot.state, JobState::Done { from_store: false });
            assert!(idle.join().expect("idle waiter"));
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "a terminal transition must wake its waiters"
        );
    }

    #[test]
    fn queued_specs_snapshots_only_queued_jobs() {
        let table = JobTable::new();
        let a = table.submit(spec(), 1);
        let b = table.submit(spec(), 2);
        let c = table.submit(spec(), 3);
        table.transition(b.id, JobState::Running);
        table.cancel(c.id);
        let queued = table.queued_specs();
        assert_eq!(
            queued.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a.id]
        );
        assert_eq!(table.running_ids(), vec![b.id]);
    }
}
