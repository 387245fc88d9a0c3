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
//! * **Checkpointing** — each completed experiment's tables are appended
//!   to a JSON manifest with an atomic write-to-temp-then-rename. A rerun
//!   pointed at the same manifest replays completed experiments from disk
//!   ([`ExperimentOutcome::Resumed`]) instead of recomputing their
//!   OPT/oracle pre-passes.
//! * **Bounded IO retry** — manifest reads and writes retry with
//!   exponential backoff before giving up; a checkpoint that still fails
//!   is recorded in the report but does not fail the suite.
//! * **Worker pool** — independent experiments run on up to
//!   [`SuiteConfig::jobs`] workers concurrently (scoped threads, no extra
//!   dependencies). Each worker still gets the full per-experiment
//!   isolation and watchdog; completed experiments are checkpointed as
//!   they finish (manifest writes serialized by a lock) and the report
//!   keeps request order regardless of completion order. The shared
//!   [`StreamCache`](crate::replay::StreamCache) in the context means
//!   concurrent experiments record each reference stream only once.
//!
//! The manifest format is a small hand-rolled JSON document (this
//! workspace deliberately has no serde dependency); see [`SuiteReport`]
//! for the shape.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, LazyLock, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llc_telemetry::metrics::{global, Counter, Histogram, TIME_BOUNDS};
use llc_telemetry::spans;

use crate::error::RunError;
use crate::experiments::{run_experiment, ExperimentCtx, ExperimentId};
use crate::json;
use crate::report::Table;

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
            "Checkpoint manifest writes attempted after completed experiments",
        ),
        checkpoint_write: global().histogram(
            "llc_suite_checkpoint_write_seconds",
            "Duration of checkpoint manifest serialization + atomic write",
            &TIME_BOUNDS,
        ),
    }
});

/// Configuration of the suite harness.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Wall-clock budget per experiment; `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Additional attempts for a failing manifest read/write (0 = one
    /// attempt, no retries).
    pub io_retries: u32,
    /// Backoff before the first retry; doubled after each failure.
    pub retry_backoff: Duration,
    /// Checkpoint manifest path; `None` disables checkpointing/resume.
    pub manifest_path: Option<PathBuf>,
    /// Maximum experiments running concurrently. `1` = sequential
    /// (default); `0` = one worker per available hardware thread.
    pub jobs: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            timeout: Some(Duration::from_secs(1800)),
            io_retries: 3,
            retry_backoff: Duration::from_millis(50),
            manifest_path: None,
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
        /// included); checkpointed so later resumes can report it.
        elapsed: Duration,
    },
    /// Replayed from the checkpoint manifest without recomputation.
    Resumed {
        /// The tables as checkpointed by the earlier invocation.
        tables: Vec<Table>,
        /// Wall time the checkpointed run took — i.e. roughly what the
        /// resume just saved. `None` for manifests written before the
        /// field existed.
        saved: Option<Duration>,
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
    /// Checkpoint writes that failed even after retries (the suite still
    /// completed; only resumability is degraded).
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

    /// Experiments replayed from the checkpoint manifest.
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

    /// Total wall time the resumes skipped, as recorded by the earlier
    /// invocations that checkpointed them (experiments resumed from
    /// manifests predating the timing field contribute nothing).
    pub fn time_skipped(&self) -> Duration {
        self.outcomes
            .iter()
            .filter_map(|(_, o)| match o {
                ExperimentOutcome::Resumed { saved, .. } => *saved,
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
                ExperimentOutcome::Resumed { tables, saved } => {
                    let saved = match saved {
                        Some(d) => format!(", ~{:.1?} skipped", d),
                        None => String::new(),
                    };
                    (
                        "resumed".to_string(),
                        format!("{} table(s) from checkpoint{saved}", tables.len()),
                    )
                }
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
/// Fails only if an existing checkpoint manifest cannot be read or
/// parsed — per-experiment failures are recorded in the report, not
/// returned. Delete (or move) a corrupt manifest to proceed without it.
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
    let manifest = match &config.manifest_path {
        Some(path) => load_manifest(path, config)?,
        None => Manifest::default(),
    };

    // Resolve resumes up front; everything left is independent work.
    let mut slots: Vec<Option<ExperimentOutcome>> = Vec::with_capacity(ids.len());
    let mut pending: Vec<(usize, ExperimentId)> = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        match manifest.get(id.label()) {
            Some((tables, elapsed_ms)) => {
                METRICS.resumed.inc();
                slots.push(Some(ExperimentOutcome::Resumed {
                    tables: tables.to_vec(),
                    saved: elapsed_ms.map(Duration::from_millis),
                }));
            }
            None => {
                slots.push(None);
                pending.push((i, id));
            }
        }
    }

    // Shared between workers: the manifest plus accumulated checkpoint
    // complaints, both mutated under one lock so every completed
    // experiment is persisted immediately, exactly as in sequential runs.
    let checkpoint = Mutex::new((manifest, Vec::<String>::new()));
    let result_slots: Vec<Mutex<Option<ExperimentOutcome>>> =
        slots.iter_mut().map(|s| Mutex::new(s.take())).collect();
    let next = AtomicUsize::new(0);
    let workers = config.effective_jobs().min(pending.len().max(1));
    // Workers the `--jobs` grant covers but the suite cannot use (fewer
    // runnable experiments than jobs) are donated to set-sharded replay
    // up front; each worker re-donates itself when it runs out of
    // claimable experiments, so the tail of a suite — a few long
    // stragglers on an otherwise idle machine — still saturates it.
    crate::budget::reset(config.effective_jobs().saturating_sub(workers));
    let suite_start = Instant::now();
    pool::scoped_workers(workers, |_| loop {
        let w = next.fetch_add(1, Ordering::SeqCst);
        let Some(&(slot, id)) = pending.get(w) else {
            crate::budget::donate(1);
            break;
        };
        // Queue wait: how long the experiment sat behind others before a
        // worker picked it up (zero-ish for the first `workers` claims).
        METRICS.queue_wait.observe_duration(suite_start.elapsed());
        let outcome = run_isolated(id, ctx, config, Arc::clone(&run_fn));
        if let (Some(path), ExperimentOutcome::Completed { tables, elapsed }) =
            (&config.manifest_path, &outcome)
        {
            let _span = spans::span("checkpoint write");
            let write_start = Instant::now();
            let mut guard = checkpoint
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let (manifest, errors) = &mut *guard;
            manifest.insert(id.label(), tables.clone(), Some(elapsed.as_millis() as u64));
            if let Err(e) = save_manifest(manifest, path, config) {
                errors.push(e.to_string());
            }
            METRICS.checkpoint_writes.inc();
            METRICS
                .checkpoint_write
                .observe_duration(write_start.elapsed());
        }
        *result_slots[slot].lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
    });

    let outcomes = ids
        .iter()
        .zip(result_slots)
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
    let (_, checkpoint_errors) = checkpoint
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    Ok(SuiteReport {
        outcomes,
        checkpoint_errors,
    })
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

/// Retries an IO operation with exponential backoff, converting the final
/// failure into [`RunError::Io`].
fn with_retries<T>(
    config: &SuiteConfig,
    context: &str,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, RunError> {
    let mut backoff = config.retry_backoff;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..=config.io_retries {
        if attempt > 0 {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    Err(RunError::Io {
        context: context.to_string(),
        // infallible: the loop body ran at least once, so last_err is set.
        source: last_err.expect("at least one attempt"),
    })
}

/// The checkpoint manifest: completed experiments, their tables and
/// (since the timing field was added) their wall time, in completion
/// order.
#[derive(Debug, Default)]
struct Manifest {
    entries: Vec<ManifestEntry>,
}

#[derive(Debug)]
struct ManifestEntry {
    label: String,
    tables: Vec<Table>,
    /// Wall time of the run that produced the tables. Optional so
    /// manifests written before the field existed still parse (the
    /// format version stays at 1 — old readers ignore unknown fields
    /// and old writers simply omit this one).
    elapsed_ms: Option<u64>,
}

impl Manifest {
    fn get(&self, label: &str) -> Option<(&[Table], Option<u64>)> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .map(|e| (e.tables.as_slice(), e.elapsed_ms))
    }

    fn insert(&mut self, label: &str, tables: Vec<Table>, elapsed_ms: Option<u64>) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.label == label) {
            entry.tables = tables;
            entry.elapsed_ms = elapsed_ms;
        } else {
            self.entries.push(ManifestEntry {
                label: label.to_string(),
                tables,
                elapsed_ms,
            });
        }
    }
}

/// Loads a manifest; a missing file is an empty manifest, an unreadable
/// or unparsable one is a typed error.
fn load_manifest(path: &Path, config: &SuiteConfig) -> Result<Manifest, RunError> {
    if !path.exists() {
        return Ok(Manifest::default());
    }
    let text = with_retries(
        config,
        &format!("reading manifest {}", path.display()),
        || std::fs::read_to_string(path),
    )?;
    parse_manifest(&text).map_err(|reason| RunError::Manifest {
        path: path.display().to_string(),
        reason,
    })
}

/// Writes the manifest crash-safely via [`llc_trace::atomic_write`]:
/// serialize to a temporary sibling file, fsync, then rename over the
/// target, so a crash mid-write can never leave a truncated or
/// half-written manifest where the next run would find it.
fn save_manifest(manifest: &Manifest, path: &Path, config: &SuiteConfig) -> Result<(), RunError> {
    let text = render_manifest(manifest);
    with_retries(
        config,
        &format!("writing manifest {}", path.display()),
        || llc_trace::atomic_write(path, text.as_bytes()),
    )
}

const MANIFEST_VERSION: u64 = 1;

fn render_manifest(manifest: &Manifest) -> String {
    use json::Value;
    let entries: Vec<Value> = manifest
        .entries
        .iter()
        .map(|entry| {
            let mut fields = vec![
                ("id", Value::Str(entry.label.clone())),
                (
                    "tables",
                    Value::Array(entry.tables.iter().map(json::table_to_json).collect()),
                ),
            ];
            if let Some(ms) = entry.elapsed_ms {
                fields.push(("elapsed_ms", Value::Num(ms as f64)));
            }
            Value::object(fields)
        })
        .collect();
    let doc = Value::object(vec![
        ("version", Value::Num(MANIFEST_VERSION as f64)),
        ("entries", Value::Array(entries)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    use json::Value;
    let doc = json::parse(text)?;
    let version = doc
        .field("version")
        .and_then(Value::as_u64)
        .ok_or("missing version")?;
    if version != MANIFEST_VERSION {
        return Err(format!("unsupported manifest version {version}"));
    }
    let entries = doc
        .field("entries")
        .and_then(Value::as_array)
        .ok_or("missing entries")?;
    let mut manifest = Manifest::default();
    for entry in entries {
        let label = entry
            .field("id")
            .and_then(Value::as_str)
            .ok_or("entry missing id")?
            .to_string();
        let tables = entry
            .field("tables")
            .and_then(Value::as_array)
            .ok_or("entry missing tables")?;
        let tables: Result<Vec<Table>, String> = tables.iter().map(json::table_from_json).collect();
        let elapsed_ms = entry.field("elapsed_ms").and_then(Value::as_u64);
        manifest.insert(&label, tables?, elapsed_ms);
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(title: &str) -> Table {
        let mut t = Table::new(title, &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.note("a note with \"quotes\" and a \\ backslash");
        t
    }

    fn quick_config() -> SuiteConfig {
        SuiteConfig {
            timeout: Some(Duration::from_secs(10)),
            io_retries: 1,
            retry_backoff: Duration::from_millis(1),
            manifest_path: None,
            jobs: 1,
        }
    }

    #[test]
    fn manifest_round_trips_tables() {
        let mut m = Manifest::default();
        m.insert("fig7", vec![table("Fig 7 — «headline», 100%")], Some(4321));
        m.insert("table1", vec![table("T1"), table("T1b")], None);
        let text = render_manifest(&m);
        let back = parse_manifest(&text).expect("parse own output");
        assert_eq!(back.entries.len(), 2);
        let (fig7, elapsed) = back.get("fig7").expect("fig7 present");
        assert_eq!(fig7.len(), 1);
        assert_eq!(fig7[0].title, "Fig 7 — «headline», 100%");
        assert_eq!(fig7[0].rows, vec![vec!["a".to_string(), "1".to_string()]]);
        assert_eq!(elapsed, Some(4321), "wall time survives the round trip");
        let (t1, t1_elapsed) = back.get("table1").expect("table1 present");
        assert_eq!(t1.len(), 2);
        assert_eq!(t1_elapsed, None);
    }

    #[test]
    fn manifest_without_elapsed_field_still_parses() {
        // The exact shape PR 1 wrote, before per-experiment timing
        // existed: same version, no elapsed_ms.
        let text = "{\"version\": 1, \"entries\": [{\"id\": \"fig1\", \"tables\": []}]}";
        let m = parse_manifest(text).expect("old manifests stay readable");
        let (tables, elapsed) = m.get("fig1").expect("entry present");
        assert!(tables.is_empty());
        assert_eq!(elapsed, None);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        assert!(parse_manifest("{").is_err());
        assert!(parse_manifest("{\"version\": 99, \"entries\": []}").is_err());
        assert!(parse_manifest("{\"version\": 1}").is_err());
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
        let dir = std::env::temp_dir().join(format!("llc-suite-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let manifest = dir.join("manifest.json");
        let _ = std::fs::remove_file(&manifest);
        let config = SuiteConfig {
            manifest_path: Some(manifest.clone()),
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
        assert!(
            manifest.exists(),
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
        // The resume reports how much wall time the checkpoint saved
        // (the first run recorded its elapsed time in the manifest).
        match &report.outcomes[0].1 {
            ExperimentOutcome::Resumed { saved, .. } => {
                assert!(saved.is_some(), "checkpointed run must carry its wall time")
            }
            other => panic!("expected resume, got {other:?}"),
        }
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn corrupt_manifest_file_fails_the_suite_with_manifest_error() {
        let dir = std::env::temp_dir();
        let manifest = dir.join(format!("llc-suite-corrupt-{}.json", std::process::id()));
        std::fs::write(&manifest, "this is not json").expect("write corrupt file");
        let config = SuiteConfig {
            manifest_path: Some(manifest.clone()),
            ..quick_config()
        };
        let ctx = ExperimentCtx::test();
        let r = run_suite_with(&[ExperimentId::Table1], &ctx, &config, |_, _| Ok(vec![]));
        assert!(matches!(r, Err(RunError::Manifest { .. })));
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn retries_give_up_with_io_error() {
        let config = quick_config();
        let mut calls = 0;
        let r: Result<(), RunError> = with_retries(&config, "always failing", || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
        });
        assert_eq!(calls, 2); // initial attempt + io_retries(1)
        assert!(matches!(r, Err(RunError::Io { .. })));
    }

    #[test]
    fn parallel_suite_preserves_request_order_and_checkpoints() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("llc-suite-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let manifest = dir.join("manifest.json");
        let _ = std::fs::remove_file(&manifest);
        let config = SuiteConfig {
            jobs: 4,
            manifest_path: Some(manifest.clone()),
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
        let saved = parse_manifest(&std::fs::read_to_string(&manifest).expect("manifest"))
            .expect("valid manifest");
        assert!(saved.get("table1").is_some());
        assert!(
            saved.get("fig2").is_none(),
            "failed experiment must not be checkpointed"
        );
        let (_, elapsed) = saved.get("fig1").expect("fig1 checkpointed");
        assert!(
            elapsed.is_some(),
            "checkpoints record per-experiment wall time"
        );
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_dir(&dir);
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
                    ExperimentOutcome::Resumed {
                        tables: vec![],
                        saved: Some(Duration::from_secs(42)),
                    },
                ),
            ],
            checkpoint_errors: vec!["disk full".into()],
        };
        let s = report.summary().to_string();
        assert!(s.contains("table1"));
        assert!(s.contains("FAILED"));
        assert!(s.contains("boom"));
        assert!(s.contains("disk full"));
        assert!(
            s.contains("skipped"),
            "resume rows show the time the checkpoint saved: {s}"
        );
        assert_eq!(report.time_spent(), Duration::from_millis(1500));
        assert_eq!(report.time_skipped(), Duration::from_secs(42));
    }
}
