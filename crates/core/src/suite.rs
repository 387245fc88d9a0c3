//! A crash-isolating, resumable experiment-suite runner.
//!
//! [`run_experiment`] runs one
//! experiment and returns its tables or a typed error. This module wraps
//! that in the harness a long unattended campaign needs:
//!
//! * **Crash isolation** — each experiment runs on its own thread under
//!   `catch_unwind`; a panic (or a typed error) becomes a structured
//!   [`ExperimentOutcome::Failed`] row and the suite moves on instead of
//!   aborting, so one broken experiment cannot take down an overnight run.
//! * **Watchdog** — a configurable wall-clock budget per experiment. On
//!   timeout the worker thread is abandoned (detached, never joined) and
//!   the experiment is recorded as failed; the suite continues.
//! * **Checkpointing** — with [`SuiteConfig::store`] set, each completed
//!   experiment's tables are saved to the [`ResultStore`] under that
//!   root as it finishes, keyed by
//!   [`ExperimentCtx::result_fingerprint`] — the store and key `repro
//!   serve --store` uses. A rerun finds them there
//!   ([`ExperimentOutcome::Resumed`]) instead of recomputing their
//!   OPT/oracle pre-passes, and only under the same resolved context: a
//!   different machine, scale or app set is a different key. A stored
//!   document that does not decode is quarantined and recomputed; that,
//!   and a failed save, is noted in [`SuiteReport::checkpoint_errors`]
//!   and never fails the suite.
//! * **Worker pool** — independent experiments run on up to
//!   [`SuiteConfig::jobs`] workers concurrently (scoped threads, no extra
//!   dependencies). Each worker still gets the full per-experiment
//!   isolation and watchdog; completed experiments are saved as they
//!   finish (each to its own file, by atomic rename) and the report
//!   keeps request order regardless of completion order. The shared
//!   [`StreamCache`](crate::replay::StreamCache) in the context means
//!   concurrent experiments record each reference stream only once.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, LazyLock, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llc_telemetry::metrics::{global, Counter, Histogram, TIME_BOUNDS};
use llc_telemetry::spans;

use crate::error::RunError;
use crate::experiments::{run_experiment, ExperimentCtx, ExperimentId};
use crate::report::Table;
use crate::results::{ResultStore, RESULTS_DIR};

pub mod pool;

/// Suite-level telemetry, resolved once per process.
struct SuiteMetrics {
    queue_wait: Arc<Histogram>,
    completed: Arc<Counter>,
    resumed: Arc<Counter>,
    failed: Arc<Counter>,
    checkpoint_writes: Arc<Counter>,
    checkpoint_write: Arc<Histogram>,
}

static METRICS: LazyLock<SuiteMetrics> = LazyLock::new(|| {
    let experiments = |status| {
        global().counter_with(
            "llc_suite_experiments_total",
            "Experiments finished by the suite runner, by outcome",
            &[("status", status)],
        )
    };
    SuiteMetrics {
        queue_wait: global().histogram(
            "llc_suite_queue_wait_seconds",
            "Time experiments waited from suite start until a worker claimed them",
            &TIME_BOUNDS,
        ),
        completed: experiments("completed"),
        resumed: experiments("resumed"),
        failed: experiments("failed"),
        checkpoint_writes: global().counter(
            "llc_suite_checkpoint_writes_total",
            "Result-store saves attempted after completed experiments",
        ),
        checkpoint_write: global().histogram(
            "llc_suite_checkpoint_write_seconds",
            "Duration of a result-store save (serialization + atomic write)",
            &TIME_BOUNDS,
        ),
    }
});

/// Configuration of the suite harness.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Wall-clock budget per experiment; `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Root of a `repro serve --store` layout whose `results/` the suite
    /// loads finished tables from and saves them to; `None` disables
    /// checkpointing.
    pub store: Option<PathBuf>,
    /// Maximum experiments running concurrently. `1` = sequential
    /// (default); `0` = one worker per available hardware thread.
    pub jobs: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            timeout: Some(Duration::from_secs(1800)),
            store: None,
            jobs: 1,
        }
    }
}

impl SuiteConfig {
    /// The resolved worker count: [`jobs`](SuiteConfig::jobs), with `0`
    /// meaning the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }
}

/// What happened to one experiment in a suite run.
#[derive(Debug, Clone)]
pub enum ExperimentOutcome {
    /// Ran to completion in this invocation.
    Completed {
        /// The experiment's rendered tables.
        tables: Vec<Table>,
        /// Wall time the experiment took (isolation thread + watchdog
        /// included).
        elapsed: Duration,
    },
    /// Loaded from the result store without recomputation.
    Resumed {
        /// The tables as an earlier batch run or daemon job saved them.
        tables: Vec<Table>,
    },
    /// Did not produce tables; the suite recorded why and moved on.
    Failed {
        /// Human-readable failure reason (typed error, panic payload or
        /// watchdog timeout).
        reason: String,
    },
}

impl ExperimentOutcome {
    /// The tables, if the experiment produced any.
    pub fn tables(&self) -> Option<&[Table]> {
        match self {
            ExperimentOutcome::Completed { tables, .. }
            | ExperimentOutcome::Resumed { tables, .. } => Some(tables),
            ExperimentOutcome::Failed { .. } => None,
        }
    }
}

/// The result of a suite run: one outcome per requested experiment, in
/// request order, plus any checkpoint-write complaints.
#[derive(Debug)]
pub struct SuiteReport {
    /// One `(experiment, outcome)` row per requested experiment.
    pub outcomes: Vec<(ExperimentId, ExperimentOutcome)>,
    /// Stored results that failed to load (and were recomputed) or to
    /// save (the suite still completed; only resumability is degraded).
    pub checkpoint_errors: Vec<String>,
}

impl SuiteReport {
    /// Experiments that ran to completion in this invocation.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ExperimentOutcome::Completed { .. }))
            .count()
    }

    /// Experiments loaded from the result store.
    pub fn resumed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ExperimentOutcome::Resumed { .. }))
            .count()
    }

    /// Experiments that failed (error, panic or timeout).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ExperimentOutcome::Failed { .. }))
            .count()
    }

    /// Total wall time spent by experiments completed in this
    /// invocation (per-experiment times, so parallel runs sum to more
    /// than the suite's own wall clock).
    pub fn time_spent(&self) -> Duration {
        self.outcomes
            .iter()
            .filter_map(|(_, o)| match o {
                ExperimentOutcome::Completed { elapsed, .. } => Some(*elapsed),
                _ => None,
            })
            .sum()
    }

    /// A one-row-per-experiment status table for the end of a report.
    pub fn summary(&self) -> Table {
        let mut t = Table::new("Suite summary", &["experiment", "status", "detail"]);
        for (id, outcome) in &self.outcomes {
            let (status, detail) = match outcome {
                ExperimentOutcome::Completed { tables, elapsed } => (
                    "completed".to_string(),
                    format!("{} table(s) in {:.1?}", tables.len(), elapsed),
                ),
                ExperimentOutcome::Resumed { tables } => (
                    "resumed".to_string(),
                    format!("{} table(s) from the result store", tables.len()),
                ),
                ExperimentOutcome::Failed { reason } => ("FAILED".to_string(), reason.clone()),
            };
            t.row(vec![id.label().to_string(), status, detail]);
        }
        for e in &self.checkpoint_errors {
            t.note(format!("checkpoint warning: {e}"));
        }
        t
    }
}

/// Runs the given experiments under the full harness (isolation,
/// watchdog, checkpoint/resume) using the real
/// [`run_experiment`].
///
/// # Errors
///
/// Fails only with [`RunError::Io`] if the result store under
/// [`SuiteConfig::store`] cannot be opened — per-experiment failures,
/// corrupt stored results and failed saves are recorded in the report,
/// not returned.
pub fn run_suite(
    ids: &[ExperimentId],
    ctx: &ExperimentCtx,
    config: &SuiteConfig,
) -> Result<SuiteReport, RunError> {
    run_suite_with(ids, ctx, config, run_experiment)
}

/// [`run_suite`] generic over the experiment body, so tests can inject
/// panicking, hanging or counting experiments without touching the real
/// registry.
///
/// # Errors
///
/// Same conditions as [`run_suite`].
pub fn run_suite_with<F>(
    ids: &[ExperimentId],
    ctx: &ExperimentCtx,
    config: &SuiteConfig,
    run_fn: F,
) -> Result<SuiteReport, RunError>
where
    F: Fn(ExperimentId, &ExperimentCtx) -> Result<Vec<Table>, RunError> + Send + Sync + 'static,
{
    let run_fn = Arc::new(run_fn);
    let results = config
        .store
        .as_ref()
        .map(|root| ResultStore::open(root.join(RESULTS_DIR)))
        .transpose()?;

    // Resolve resumes up front; everything left is independent work. A
    // stored result that does not load has been quarantined: recompute.
    let mut checkpoint_errors = Vec::new();
    let mut slots = Vec::with_capacity(ids.len());
    let mut pending: Vec<(usize, ExperimentId)> = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let stored = results.as_ref().and_then(|store| {
            store.load(ctx.result_fingerprint(id)).unwrap_or_else(|e| {
                checkpoint_errors.push(format!("{e} (recomputed)"));
                None
            })
        });
        if let Some(tables) = stored {
            METRICS.resumed.inc();
            slots.push(Mutex::new(Some(ExperimentOutcome::Resumed { tables })));
        } else {
            slots.push(Mutex::new(None));
            pending.push((i, id));
        }
    }

    let checkpoint_errors = Mutex::new(checkpoint_errors);
    let next = AtomicUsize::new(0);
    let workers = config.effective_jobs().min(pending.len().max(1));
    let suite_start = Instant::now();
    pool::scoped_workers(workers, |_| loop {
        let w = next.fetch_add(1, Ordering::SeqCst);
        let Some(&(slot, id)) = pending.get(w) else {
            break;
        };
        // Queue wait: how long the experiment sat behind others before a
        // worker picked it up (zero-ish for the first `workers` claims).
        METRICS.queue_wait.observe_duration(suite_start.elapsed());
        let outcome = run_isolated(id, ctx, config, Arc::clone(&run_fn));
        if let (Some(store), ExperimentOutcome::Completed { tables, .. }) = (&results, &outcome) {
            let _span = spans::span("checkpoint write");
            let write_start = Instant::now();
            if let Err(e) = store.save(ctx.result_fingerprint(id), id.label(), tables) {
                lock(&checkpoint_errors).push(e.to_string());
            }
            METRICS.checkpoint_writes.inc();
            METRICS
                .checkpoint_write
                .observe_duration(write_start.elapsed());
        }
        *lock(&slots[slot]) = Some(outcome);
    });

    let outcomes = ids
        .iter()
        .zip(slots)
        .map(|(&id, slot)| {
            let outcome = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                // infallible: every slot is either pre-filled (resumed) or
                // assigned by the worker that claimed its pending index.
                .expect("every experiment slot is filled");
            (id, outcome)
        })
        .collect();
    Ok(SuiteReport {
        outcomes,
        checkpoint_errors: checkpoint_errors
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    })
}

/// Locks `m`, recovering the data of a poisoned lock (a worker panic
/// is already contained and reported by [`run_guarded`]).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The outcome of a [`run_guarded`] call.
#[derive(Debug)]
pub enum GuardedOutcome<T> {
    /// The work finished with its own result or error, or the guard
    /// turned its panic, blown time budget or failed spawn into one.
    Finished(Result<T, RunError>),
    /// The cancel flag was raised; the worker was abandoned exactly like
    /// on a timeout (it keeps running detached, its result discarded).
    Cancelled,
}

/// How often [`run_guarded`] re-checks its cancel flag.
const CANCEL_POLL: Duration = Duration::from_millis(25);

/// Runs `work` on a dedicated thread under `catch_unwind`, a watchdog and
/// a cancellation flag, converting a panic into [`RunError::Panicked`]
/// and a blown time budget into [`RunError::TimedOut`] (both labelled
/// with `label`). On timeout or once `cancel` is raised the worker is
/// abandoned: its thread keeps running detached until the process exits
/// (acceptable for a batch harness or a daemon discarding the result;
/// the alternative — killing a thread — is unsound in Rust).
///
/// This is the isolation primitive behind both the suite runner's
/// per-experiment crash containment (with a flag it never raises) and
/// the `llc-serve` daemon's job execution, where `DELETE /jobs/{id}`
/// raises the flag to cancel a running job.
pub fn run_guarded<T, F>(
    label: &str,
    timeout: Option<Duration>,
    cancel: &AtomicBool,
    work: F,
) -> GuardedOutcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T, RunError> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name(format!("guarded-{label}"))
        .spawn(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(work));
            // The receiver may be gone after a timeout or cancel; that
            // is fine, the outcome was already recorded.
            let _ = tx.send(result);
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => {
            return GuardedOutcome::Finished(Err(RunError::Io {
                context: format!("spawning guarded thread for {label}"),
                source: e,
            }))
        }
    };
    let started = Instant::now();
    let received = loop {
        if cancel.load(Ordering::Relaxed) {
            drop(handle); // abandon the worker; see the function docs
            return GuardedOutcome::Cancelled;
        }
        let mut wait = CANCEL_POLL;
        if let Some(limit) = timeout {
            let left = limit.saturating_sub(started.elapsed());
            if left.is_zero() {
                drop(handle);
                return GuardedOutcome::Finished(Err(RunError::TimedOut {
                    label: label.to_string(),
                    limit,
                }));
            }
            wait = wait.min(left);
        }
        match rx.recv_timeout(wait) {
            Ok(r) => break r,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return GuardedOutcome::Finished(Err(RunError::Panicked {
                    label: label.to_string(),
                    reason: "worker thread exited without reporting".into(),
                }))
            }
        }
    };
    let _ = handle.join(); // already reported; join cannot block long
    GuardedOutcome::Finished(received.unwrap_or_else(|payload| {
        Err(RunError::Panicked {
            label: label.to_string(),
            reason: panic_message(payload.as_ref()),
        })
    }))
}

/// Runs one experiment under [`run_guarded`], folding the typed error
/// into a structured suite outcome.
fn run_isolated<F>(
    id: ExperimentId,
    ctx: &ExperimentCtx,
    config: &SuiteConfig,
    run_fn: Arc<F>,
) -> ExperimentOutcome
where
    F: Fn(ExperimentId, &ExperimentCtx) -> Result<Vec<Table>, RunError> + Send + Sync + 'static,
{
    let ctx = ctx.clone();
    let _span = spans::span_with(|| format!("experiment {}", id.label()));
    let start = Instant::now();
    let never = AtomicBool::new(false);
    let GuardedOutcome::Finished(result) =
        run_guarded(id.label(), config.timeout, &never, move || run_fn(id, &ctx))
    else {
        unreachable!("the suite never raises its cancel flag");
    };
    match result {
        Ok(tables) => {
            METRICS.completed.inc();
            ExperimentOutcome::Completed {
                tables,
                elapsed: start.elapsed(),
            }
        }
        Err(e) => {
            METRICS.failed.inc();
            ExperimentOutcome::Failed {
                reason: e.to_string(),
            }
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SuiteConfig {
        SuiteConfig {
            timeout: Some(Duration::from_secs(10)),
            store: None,
            jobs: 1,
        }
    }

    /// A fresh store root for one test.
    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("llc-suite-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn suite_records_failures_and_continues() {
        let ctx = ExperimentCtx::test();
        let ids = [ExperimentId::Table1, ExperimentId::Fig1, ExperimentId::Fig2];
        let report = run_suite_with(&ids, &ctx, &quick_config(), |id, _ctx| match id {
            ExperimentId::Fig1 => panic!("injected panic"),
            ExperimentId::Fig2 => Err(RunError::UnknownExperiment {
                id: "injected error".into(),
            }),
            _ => Ok(vec![Table::new("ok", &["x"])]),
        })
        .expect("suite runs");
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 2);
        match &report.outcomes[1].1 {
            ExperimentOutcome::Failed { reason } => assert!(reason.contains("injected panic")),
            other => panic!("expected failure, got {other:?}"),
        }
        match &report.outcomes[2].1 {
            ExperimentOutcome::Failed { reason } => assert!(reason.contains("injected error")),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_times_out_hung_experiments() {
        let ctx = ExperimentCtx::test();
        let config = SuiteConfig {
            timeout: Some(Duration::from_millis(50)),
            ..quick_config()
        };
        let ids = [ExperimentId::Table1, ExperimentId::Fig1];
        let report = run_suite_with(&ids, &ctx, &config, |id, _ctx| {
            if id == ExperimentId::Table1 {
                thread::sleep(Duration::from_secs(60)); // hangs well past the budget
            }
            Ok(vec![Table::new("ok", &["x"])])
        })
        .expect("suite runs");
        match &report.outcomes[0].1 {
            ExperimentOutcome::Failed { reason } => assert!(reason.contains("time budget")),
            other => panic!("expected timeout, got {other:?}"),
        }
        // The suite moved on past the hung experiment.
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn run_guarded_passes_results_through() {
        let cancel = AtomicBool::new(false);
        match run_guarded("ok", None, &cancel, || Ok(7)) {
            GuardedOutcome::Finished(Ok(n)) => assert_eq!(n, 7),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn run_guarded_contains_panics() {
        let cancel = AtomicBool::new(false);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let outcome = run_guarded::<(), _>("boom", None, &cancel, || panic!("kaboom"));
        panic::set_hook(prev);
        match outcome {
            GuardedOutcome::Finished(Err(RunError::Panicked { label, .. })) => {
                assert_eq!(label, "boom");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn run_guarded_times_out_and_cancels() {
        let cancel = AtomicBool::new(false);
        let outcome =
            run_guarded::<(), _>("slow", Some(Duration::from_millis(30)), &cancel, || {
                thread::sleep(Duration::from_secs(30));
                Ok(())
            });
        assert!(matches!(
            outcome,
            GuardedOutcome::Finished(Err(RunError::TimedOut { .. }))
        ));

        let cancel = AtomicBool::new(true); // pre-cancelled
        let outcome = run_guarded::<(), _>("gone", None, &cancel, || {
            thread::sleep(Duration::from_secs(30));
            Ok(())
        });
        assert!(matches!(outcome, GuardedOutcome::Cancelled));
    }

    #[test]
    fn checkpoint_resume_skips_completed_experiments() {
        let root = temp_root("resume");
        let config = SuiteConfig {
            store: Some(root.clone()),
            ..quick_config()
        };
        let ctx = ExperimentCtx::test();
        let ids = [ExperimentId::Table1, ExperimentId::Fig1];

        // First run: fig1 fails, table1 completes and is checkpointed.
        let report = run_suite_with(&ids, &ctx, &config, |id, _ctx| {
            if id == ExperimentId::Fig1 {
                panic!("first run failure");
            }
            Ok(vec![Table::new("ok", &["x"])])
        })
        .expect("first run");
        assert_eq!(report.completed(), 1);
        let results = ResultStore::open(root.join(RESULTS_DIR)).expect("results");
        assert!(
            results.contains(ctx.result_fingerprint(ExperimentId::Table1)),
            "completed experiment must be checkpointed"
        );

        // Second run: table1 must come from the checkpoint (the closure
        // panics if asked to recompute it), fig1 runs for real now.
        let report = run_suite_with(&ids, &ctx, &config, |id, _ctx| {
            if id == ExperimentId::Table1 {
                panic!("resume must not recompute table1");
            }
            Ok(vec![Table::new("fig1 ok", &["x"])])
        })
        .expect("second run");
        assert_eq!(report.resumed(), 1);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 0);
        match &report.outcomes[0].1 {
            ExperimentOutcome::Resumed { tables } => assert_eq!(tables[0].title, "ok"),
            other => panic!("expected resume, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_stored_result_is_quarantined_recomputed_and_noted() {
        let root = temp_root("corrupt");
        let config = SuiteConfig {
            store: Some(root.clone()),
            ..quick_config()
        };
        let ctx = ExperimentCtx::test();
        let fp = ctx.result_fingerprint(ExperimentId::Table1);
        let results = ResultStore::open(root.join(RESULTS_DIR)).expect("results");
        std::fs::write(results.path_for(fp), "this is not json").expect("write corrupt file");
        let report = run_suite_with(&[ExperimentId::Table1], &ctx, &config, |_, _| {
            Ok(vec![Table::new("recomputed", &["x"])])
        })
        .expect("a corrupt stored result never fails the suite");
        assert_eq!(report.completed(), 1);
        assert_eq!(report.checkpoint_errors.len(), 1, "{report:?}");
        assert!(report.checkpoint_errors[0].contains("bad JSON"));
        let evidence = results
            .dir()
            .join(llc_trace::QUARANTINE_DIR)
            .join(format!("{fp:016x}.json"));
        assert_eq!(
            std::fs::read_to_string(evidence).expect("quarantined copy"),
            "this is not json"
        );
        let saved = results
            .load(fp)
            .expect("load")
            .expect("recomputed and saved");
        assert_eq!(saved[0].title, "recomputed");

        // A store root that cannot be opened is the suite's one error.
        let file_root = root.join("not-a-dir");
        std::fs::write(&file_root, "").expect("write file");
        let config = SuiteConfig {
            store: Some(file_root),
            ..quick_config()
        };
        let r = run_suite_with(&[ExperimentId::Table1], &ctx, &config, |_, _| Ok(vec![]));
        assert!(matches!(r, Err(RunError::Io { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn parallel_suite_preserves_request_order_and_checkpoints() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let root = temp_root("par");
        let config = SuiteConfig {
            jobs: 4,
            store: Some(root.clone()),
            ..quick_config()
        };
        let ctx = ExperimentCtx::test();
        let ids = [
            ExperimentId::Table1,
            ExperimentId::Fig1,
            ExperimentId::Fig2,
            ExperimentId::Fig3,
        ];
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let report = {
            let (in_flight, peak) = (Arc::clone(&in_flight), Arc::clone(&peak));
            run_suite_with(&ids, &ctx, &config, move |id, _ctx| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(30));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                if id == ExperimentId::Fig2 {
                    panic!("injected parallel failure");
                }
                Ok(vec![Table::new(id.label(), &["x"])])
            })
            .expect("suite runs")
        };
        // Outcomes come back in request order no matter who finished first.
        let labels: Vec<&str> = report.outcomes.iter().map(|(id, _)| id.label()).collect();
        assert_eq!(labels, vec!["table1", "fig1", "fig2", "fig3"]);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 1);
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "with 4 jobs and 30ms experiments, some must overlap"
        );
        // Completed experiments were checkpointed despite the pool.
        let results = ResultStore::open(root.join(RESULTS_DIR)).expect("results");
        let saved = |id| results.load(ctx.result_fingerprint(id)).expect("load");
        assert!(saved(ExperimentId::Table1).is_some());
        assert!(
            saved(ExperimentId::Fig2).is_none(),
            "failed experiment must not be checkpointed"
        );
        let fig1 = saved(ExperimentId::Fig1).expect("fig1 checkpointed");
        assert_eq!(fig1[0].title, "fig1", "each experiment under its own key");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let config = SuiteConfig {
            jobs: 0,
            ..quick_config()
        };
        assert!(config.effective_jobs() >= 1);
        let config = SuiteConfig {
            jobs: 3,
            ..quick_config()
        };
        assert_eq!(config.effective_jobs(), 3);
    }

    #[test]
    fn summary_table_shows_one_row_per_experiment() {
        let report = SuiteReport {
            outcomes: vec![
                (
                    ExperimentId::Table1,
                    ExperimentOutcome::Completed {
                        tables: vec![],
                        elapsed: Duration::from_millis(1500),
                    },
                ),
                (
                    ExperimentId::Fig1,
                    ExperimentOutcome::Failed {
                        reason: "boom".into(),
                    },
                ),
                (
                    ExperimentId::Fig2,
                    ExperimentOutcome::Resumed { tables: vec![] },
                ),
            ],
            checkpoint_errors: vec!["disk full".into()],
        };
        let s = report.summary().to_string();
        assert!(s.contains("table1"));
        assert!(s.contains("FAILED"));
        assert!(s.contains("boom"));
        assert!(s.contains("disk full"));
        assert!(s.contains("from the result store"), "{s}");
        assert_eq!(report.time_spent(), Duration::from_millis(1500));
    }
}
