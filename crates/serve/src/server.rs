//! The daemon: a blocking `TcpListener` accept loop, per-connection
//! handler threads behind a connection cap, a timer thread, and a
//! bounded worker pool (the same [`llc_sharing::scoped_workers`]
//! primitive the suite runner schedules on), all over one shared
//! `ServerState`.
//!
//! Worker 0 owns the socket and, once shutdown is requested, supervises
//! the drain; workers `1..=jobs` block on the bounded job queue. The
//! timer thread runs the periodic GC sweep and idle-session reaping and
//! watches for SIGTERM/SIGINT. Nothing waits on a fixed sleep while a
//! request or job is ready: `accept` blocks until a connection arrives,
//! and every stop request wakes it with a throwaway loopback connection.
//! Every expensive artifact is memoized through the persistent stores,
//! so a re-submitted spec — even after a daemon restart — completes as
//! a store hit without touching the simulator.
//!
//! ## Overload and failure model
//!
//! The daemon is designed to degrade, not fall over:
//!
//! * **Admission control** — the job queue is bounded (`--max-queue`)
//!   and admitted-but-unfinished jobs are capped (`--max-inflight`).
//!   Over-limit submissions get HTTP 429 with a `Retry-After` hint
//!   derived from the observed queue-wait distribution. Duplicate
//!   submissions are checked against the store *before* admission, so
//!   they stay free even under overload.
//! * **Slow peers** — connections are capped, each one is served on its
//!   own thread, and a whole-request read deadline turns a slow-loris
//!   upload into HTTP 408 instead of a pinned handler.
//! * **Deadlines** — a spec may carry `deadline_secs`; queue wait counts
//!   against it and the run watchdog is clamped to the remainder.
//! * **Graceful drain** — SIGTERM/SIGINT, `POST /shutdown` or
//!   [`ServerControl::shutdown`] stop admissions, checkpoint queued
//!   specs to `<store>/queued-jobs.json` (restored on next start), give
//!   running jobs a bounded grace period, then cancel stragglers. The
//!   drain ends as soon as the last running job does.
//! * **Store hygiene** — corrupt store entries are quarantined, and an
//!   optional byte cap (`--store-cap-mb`) triggers background LRU GC
//!   sweeps (see [`crate::gc`]).
//! * **Chaos** — a [`ChaosPlan`] injects deterministic faults at the
//!   admission/worker/store seams for the chaos harness; production
//!   runs carry none.

use std::collections::VecDeque;
use std::fs;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llc_dag::{Manifest, NodeKind, Plan};
use llc_sharing::json::{self, Value};
use llc_sharing::{
    plan_experiment, run_experiment, run_guarded, scoped_workers, GuardedOutcome, StreamCache,
    Table,
};
use llc_telemetry::metrics::{global, Counter, Gauge, Histogram, TIME_BOUNDS};
use llc_telemetry::spans;
use llc_trace::{atomic_write, LoadError};

use crate::chaos::{ChaosPlan, ChaosPoint};
use crate::gc;
use crate::http::{read_request_deadline, write_response, Request, Response};
use crate::jobs::{JobId, JobRecord, JobState, JobTable};
use crate::sessions::SessionTable;
use crate::spec::JobSpec;
use crate::store::Store;
use crate::{io_err, ServeError};

/// File name (under the store root) of the queued-jobs checkpoint
/// written by a graceful drain and consumed on the next start.
pub const CHECKPOINT_FILE: &str = "queued-jobs.json";

/// The longest `GET /jobs/{id}?wait_ms=N` may wait, in milliseconds. It
/// keeps a long-poll inside the client's 10 s socket timeout and bounds
/// how long one holds a connection permit.
pub const MAX_WAIT_MS: u64 = 5000;

/// How often the timer thread checks for SIGTERM/SIGINT; bounds the
/// delay from the signal to the start of the drain.
const SIGNAL_POLL: Duration = Duration::from_millis(100);

/// Cadence of the background GC sweep and of idle-session reaping.
const SWEEP_EVERY: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` before the next one.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Request/job latency histograms, resolved once per process. The
/// per-verb request counters are registered on first use in
/// [`observe_request`] (labelled by method and *route pattern*, never by
/// raw path, so series cardinality stays bounded).
struct ServerMetrics {
    queue_wait: Arc<Histogram>,
    job_run: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    deadline_expired: Arc<Counter>,
    plan_latency: Arc<Histogram>,
}

static METRICS: LazyLock<ServerMetrics> = LazyLock::new(|| ServerMetrics {
    queue_wait: global().histogram(
        "llc_job_queue_wait_seconds",
        "Time jobs spent queued before a worker started them",
        &TIME_BOUNDS,
    ),
    job_run: global().histogram(
        "llc_job_run_seconds",
        "Wall time of job execution (store re-check through terminal state)",
        &TIME_BOUNDS,
    ),
    queue_depth: global().gauge(
        "llc_job_queue_depth",
        "Jobs currently waiting in the bounded queue",
    ),
    deadline_expired: global().counter(
        "llc_deadline_expired_total",
        "Jobs failed because their client-supplied deadline lapsed",
    ),
    plan_latency: global().histogram(
        "llc_dag_plan_seconds",
        "DAG planner latency per planned spec (submission or POST /plan)",
        &TIME_BOUNDS,
    ),
});

/// The `llc_admission_rejected_total{reason=...}` counter for one
/// rejection reason.
fn admission_rejected(reason: &'static str) -> Arc<Counter> {
    global().counter_with(
        "llc_admission_rejected_total",
        "Submissions and connections refused by admission control",
        &[("reason", reason)],
    )
}

/// Registers every metric series the daemon can ever emit, so scrapes
/// (and the CI smoke test) see the full set from the first response,
/// not only after the corresponding event fired.
fn register_eager_metrics() {
    LazyLock::force(&METRICS);
    for reason in ["queue_full", "inflight", "shutdown", "connections"] {
        admission_rejected(reason);
    }
    gc::register_metrics();
    llc_dag::register_metrics();
    llc_ingest::register_metrics();
    crate::sessions::register_metrics();
}

/// The route pattern a request path falls under — the bounded label set
/// for the HTTP metrics (`{id}` instead of each job id).
fn route_pattern(segments: &[&str]) -> &'static str {
    match segments {
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/{id}",
        ["jobs", _, "result"] => "/jobs/{id}/result",
        ["plan"] => "/plan",
        ["sessions"] => "/sessions",
        ["sessions", _] => "/sessions/{id}",
        ["sessions", _, "batch"] => "/sessions/{id}/batch",
        ["sessions", _, "stats"] => "/sessions/{id}/stats",
        ["store", "stats"] => "/store/stats",
        ["metrics"] => "/metrics",
        ["healthz"] => "/healthz",
        ["shutdown"] => "/shutdown",
        _ => "other",
    }
}

/// Counts one handled request and records its latency, labelled by
/// method and route pattern.
fn observe_request(method: &str, pattern: &'static str, elapsed: Duration) {
    // Methods outside the API's verb set collapse into one label value
    // to keep the series set bounded against scanners.
    let method = match method {
        "GET" => "GET",
        "POST" => "POST",
        "DELETE" => "DELETE",
        _ => "other",
    };
    global()
        .counter_with(
            "llc_http_requests_total",
            "HTTP requests handled, by method and route pattern",
            &[("method", method), ("route", pattern)],
        )
        .inc();
    global()
        .histogram_with(
            "llc_http_request_seconds",
            "Request handling latency (read + route + handler), by route pattern",
            &TIME_BOUNDS,
            &[("route", pattern)],
        )
        .observe_duration(elapsed);
}

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on (e.g. `127.0.0.1:7119`; port 0 picks one).
    pub listen: String,
    /// Root of the persistent store; streams live under `streams/`,
    /// results under `results/`.
    pub store_dir: PathBuf,
    /// Concurrent job workers.
    pub jobs: usize,
    /// Per-job wall-clock budget (`None` disables the watchdog). Also
    /// the upper bound applied to client-supplied `deadline_secs`.
    pub timeout: Option<Duration>,
    /// In-memory stream-cache byte cap; `None` applies
    /// [`StreamCache::default_limit`] for the worker count.
    pub stream_cache_limit: Option<u64>,
    /// Bounded job-queue depth; submissions past it get HTTP 429.
    pub max_queue: usize,
    /// Cap on admitted-but-unfinished jobs (queued + running).
    pub max_inflight: usize,
    /// Cap on concurrently-served connections; excess gets HTTP 503.
    pub max_connections: usize,
    /// How long a graceful drain waits for running jobs before
    /// cancelling them.
    pub grace: Duration,
    /// Combined `streams/` + `results/` byte budget; `Some` enables
    /// periodic background LRU GC sweeps.
    pub store_cap: Option<u64>,
    /// Deterministic fault injection for the chaos harness; production
    /// daemons run with `None`.
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Cap on concurrently-open streaming sessions; opens past it get
    /// HTTP 429.
    pub max_sessions: usize,
    /// Per-session cumulative accepted-payload byte cap; batches past it
    /// get HTTP 429.
    pub session_bytes: u64,
    /// Sessions idle longer than this are closed by the background
    /// sweep.
    pub session_idle: Duration,
}

impl ServerConfig {
    /// A config with one job worker per available hardware thread
    /// (override with `--jobs <n>`), a 30-minute job watchdog, the
    /// default stream-cache cap and moderate overload limits.
    pub fn new(listen: impl Into<String>, store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            listen: listen.into(),
            store_dir: store_dir.into(),
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            timeout: Some(Duration::from_secs(1800)),
            stream_cache_limit: None,
            max_queue: 256,
            max_inflight: 1024,
            max_connections: 64,
            grace: Duration::from_secs(10),
            store_cap: None,
            chaos: None,
            max_sessions: 32,
            session_bytes: 64 * 1024 * 1024,
            session_idle: Duration::from_secs(900),
        }
    }
}

/// What happened to a [`JobQueue::push_with`].
#[derive(Debug, PartialEq, Eq)]
enum PushError {
    /// The queue is at `--max-queue`; the submission was not admitted.
    Full,
    /// The daemon is draining; no further admissions.
    Closed,
}

#[derive(Debug, Default)]
struct QueueInner {
    deque: VecDeque<JobId>,
    closed: bool,
}

/// The bounded job queue: capacity enforced under the same lock that
/// registers the job, so admission never over-commits; a condvar wakes
/// workers on push and on close.
#[derive(Debug)]
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

fn lock_queue(q: &JobQueue) -> std::sync::MutexGuard<'_, QueueInner> {
    q.inner.lock().unwrap_or_else(|p| p.into_inner())
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits one job if there is room: `make` runs (registering the job
    /// in the table) only after capacity is confirmed, under the queue
    /// lock, so a rejected submission leaves no job record behind.
    fn push_with(&self, make: impl FnOnce() -> JobRecord) -> Result<JobRecord, PushError> {
        let mut inner = lock_queue(self);
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.deque.len() >= self.cap {
            return Err(PushError::Full);
        }
        let record = make();
        inner.deque.push_back(record.id);
        METRICS.queue_depth.set(inner.deque.len() as i64);
        self.ready.notify_one();
        Ok(record)
    }

    /// Pops the next job, waiting until one arrives; `None` once the
    /// queue is closed.
    fn pop(&self) -> Option<JobId> {
        let mut inner = lock_queue(self);
        loop {
            if let Some(id) = inner.deque.pop_front() {
                METRICS.queue_depth.set(inner.deque.len() as i64);
                return Some(id);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue to further admissions and takes everything still
    /// waiting (the drain path checkpoints these).
    fn drain_and_close(&self) -> Vec<JobId> {
        let mut inner = lock_queue(self);
        inner.closed = true;
        let ids: Vec<JobId> = inner.deque.drain(..).collect();
        METRICS.queue_depth.set(0);
        self.ready.notify_all();
        ids
    }

    fn len(&self) -> usize {
        lock_queue(self).deque.len()
    }
}

/// Shared state behind every connection and worker.
#[derive(Debug)]
struct ServerState {
    jobs: JobTable,
    store: Store,
    streams: StreamCache,
    timeout: Option<Duration>,
    /// The `--jobs` worker grant, reported as `budget.granted` in
    /// `GET /store/stats`.
    workers: usize,
    queue: JobQueue,
    max_inflight: usize,
    max_connections: usize,
    conns: AtomicUsize,
    grace: Duration,
    store_cap: Option<u64>,
    gc_running: AtomicBool,
    chaos: Option<Arc<ChaosPlan>>,
    sessions: SessionTable,
    /// Set once a stop was requested: admissions end and the accept loop
    /// exits into the drain.
    shutdown: AtomicBool,
    /// The listener's bound address, which [`wake`] connects to.
    addr: SocketAddr,
}

impl ServerState {
    fn chaos_fires(&self, point: ChaosPoint) -> bool {
        self.chaos.as_ref().is_some_and(|plan| plan.fire(point))
    }

    /// Requests a graceful stop: raises the flag, then wakes the accept
    /// loop blocked in `accept`. Every stop path comes through here.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Unblocks an `accept` on `addr` with a throwaway connection. An
/// unspecified bind address (`0.0.0.0`, `::`) is reached through the
/// loopback of the same family. Std's `accept` retries on EINTR, so
/// this connection is what ends the wait, not a signal. A failed
/// connect leaves nothing to do: the next real connection wakes the loop
/// just the same.
fn wake(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// Raises a process-wide flag on SIGTERM/SIGINT, which the timer thread
/// turns into a graceful drain (it checks every [`SIGNAL_POLL`]).
/// Registered through `signal(2)` directly (the handler only stores to
/// an atomic, which is async-signal-safe); on non-unix targets the flag
/// simply never fires.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerControl {
    state: Arc<ServerState>,
}

impl ServerControl {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Asks the daemon to stop; `Server::run` drains and returns.
    pub fn shutdown(&self) {
        self.state.stop();
    }
}

/// The simulation daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: usize,
}

impl Server {
    /// Binds the listener and opens (creating if needed) the persistent
    /// stores.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the store directories
    /// cannot be created.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| io_err(format!("binding {}", config.listen), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("reading bound address", e))?;
        let store = Store::open(&config.store_dir)?;
        let workers = config.jobs.max(1);
        let limit = config
            .stream_cache_limit
            .unwrap_or_else(|| StreamCache::default_limit(workers));
        let streams = StreamCache::with_store(store.streams.clone(), Some(limit));
        register_eager_metrics();
        let state = Arc::new(ServerState {
            jobs: JobTable::new(),
            store,
            streams,
            timeout: config.timeout,
            workers,
            queue: JobQueue::new(config.max_queue),
            max_inflight: config.max_inflight.max(1),
            max_connections: config.max_connections.max(1),
            conns: AtomicUsize::new(0),
            grace: config.grace,
            store_cap: config.store_cap,
            gc_running: AtomicBool::new(false),
            chaos: config.chaos.clone(),
            sessions: SessionTable::new(
                &config.store_dir,
                config.max_sessions,
                config.session_bytes,
                config.session_idle,
            ),
            shutdown: AtomicBool::new(false),
            addr,
        });
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle that can stop this server from another thread (or via
    /// `POST /shutdown` on the socket).
    pub fn control(&self) -> ServerControl {
        ServerControl {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the daemon until [`ServerControl::shutdown`], SIGTERM/SIGINT
    /// or `POST /shutdown`: worker 0 accepts connections (and then
    /// supervises the drain), the rest execute jobs, and a timer thread
    /// runs the periodic sweeps. Queued specs checkpointed by a previous
    /// drain are restored first. Returns once every worker has drained
    /// and the timer thread has stopped.
    ///
    /// # Errors
    ///
    /// Fails only if the timer thread cannot be spawned; per-connection
    /// errors are answered on the wire and per-job errors become
    /// `failed` job states.
    pub fn run(&self) -> Result<(), ServeError> {
        sig::install();
        let state = &self.state;
        let listener = &self.listener;
        thread::scope(|scope| {
            let timer = thread::Builder::new()
                .name("llc-serve-timer".into())
                .spawn_scoped(scope, || timer_loop(state))
                .map_err(|e| io_err("spawning the timer thread", e))?;
            let timer = timer.thread();
            restore_checkpoint(state);
            state.sessions.restore();
            // Every idle job worker is a donated spare worker: a lone
            // submitted job borrows them for set-sharded replay and
            // saturates the machine; each job reclaims one permit while
            // it runs (see `execute_job`).
            llc_sharing::budget::reset(self.workers);
            scoped_workers(self.workers + 1, |w| {
                if w == 0 {
                    accept_loop(listener, state);
                    timer.unpark();
                    drain(state);
                } else {
                    worker_loop(state);
                }
            });
            Ok(())
        })
    }
}

/// Accepts connections and dispatches each to its own handler thread
/// until a stop is requested. `accept` blocks; [`ServerState::stop`]
/// wakes it.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        // The wake connection, like anything else still in the backlog
        // once a stop was requested, is dropped unanswered.
        if state.stopping() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => dispatch_connection(stream, state),
            // Transient accept errors (aborted handshakes etc.) are not
            // fatal for a daemon; back off briefly and keep serving.
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// The timer thread: runs the GC sweep and idle-session reaping at
/// their cadences and turns SIGTERM/SIGINT into a stop, until the
/// accept loop exits and unparks it.
fn timer_loop(state: &Arc<ServerState>) {
    // First sweep promptly after start-up (a restart may inherit an
    // over-budget store), then at a steady cadence.
    let mut next_gc = Instant::now();
    let mut next_reap = Instant::now() + SWEEP_EVERY;
    while !state.stopping() {
        if sig::requested() {
            state.stop();
            return;
        }
        maybe_sweep(state, &mut next_gc);
        if Instant::now() >= next_reap {
            next_reap = Instant::now() + SWEEP_EVERY;
            state.sessions.reap_idle();
        }
        thread::park_timeout(SIGNAL_POLL);
    }
}

/// Kicks off a background GC sweep when a store cap is configured, the
/// cadence timer says so, and no sweep is already running.
fn maybe_sweep(state: &Arc<ServerState>, next_gc: &mut Instant) {
    let Some(cap) = state.store_cap else { return };
    if Instant::now() < *next_gc {
        return;
    }
    *next_gc = Instant::now() + SWEEP_EVERY;
    if state.gc_running.swap(true, Ordering::SeqCst) {
        return; // previous sweep still in flight
    }
    let sweeper = Arc::clone(state);
    let spawned = thread::Builder::new()
        .name("llc-serve-gc".into())
        .spawn(move || {
            // Sweep failures are logged-by-metric (the counters simply
            // do not move) and retried at the next tick.
            let _ = gc::sweep(&sweeper.store.root, Some(cap), false);
            sweeper.gc_running.store(false, Ordering::SeqCst);
        });
    if spawned.is_err() {
        state.gc_running.store(false, Ordering::SeqCst);
    }
}

/// An RAII connection slot; dropping it frees the slot.
struct ConnPermit {
    state: Arc<ServerState>,
}

impl ConnPermit {
    fn try_acquire(state: &Arc<ServerState>) -> Option<ConnPermit> {
        let mut current = state.conns.load(Ordering::Relaxed);
        loop {
            if current >= state.max_connections {
                return None;
            }
            match state.conns.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(ConnPermit {
                        state: Arc::clone(state),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.state.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hands an accepted connection to its own handler thread, or answers
/// 503 inline when the connection cap is reached (cheap by design: no
/// request parsing for rejected connections).
fn dispatch_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let Some(permit) = ConnPermit::try_acquire(state) else {
        state.jobs.count(|c| c.rejected += 1);
        admission_rejected("connections").inc();
        let _ = write_response(
            &mut stream,
            &Response::error(503, "connection limit reached").retry_after(1),
        );
        return;
    };
    let state = Arc::clone(state);
    let spawned = thread::Builder::new()
        .name("llc-serve-conn".into())
        .spawn(move || {
            let _permit = permit;
            handle_connection(stream, &state);
        });
    // Thread exhaustion: dropping the closure closes the socket, which
    // the client's retry layer treats like any transient I/O failure.
    drop(spawned);
}

/// Reads one request (under the slow-loris deadline), routes it, writes
/// one response.
fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let started = Instant::now();
    let response = match read_request_deadline(&mut stream, crate::http::DEFAULT_READ_DEADLINE) {
        Ok(request) => {
            let path = request.path.trim_end_matches('/');
            let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
            let response = route(state, &request, &segments);
            observe_request(&request.method, route_pattern(&segments), started.elapsed());
            response
        }
        Err(ServeError::Protocol(msg)) => Response::error(400, &msg),
        Err(ServeError::Timeout { context }) => Response::error(408, &format!("gave up {context}")),
        Err(_) => return, // peer vanished mid-request; nothing to answer
    };
    let _ = write_response(&mut stream, &response);
}

/// Parses a request's query string. The API has one parameter, the
/// long-poll's `wait_ms`: a whole number of milliseconds up to
/// [`MAX_WAIT_MS`], given at most once. Anything else is the client's
/// error.
fn long_poll_wait(query: &str) -> Result<Option<Duration>, String> {
    let mut wait = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "wait_ms" || wait.is_some() {
            return Err(format!("unknown or repeated query parameter {pair:?}"));
        }
        let ms = value
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms <= MAX_WAIT_MS)
            .ok_or_else(|| {
                format!("wait_ms must be 0..={MAX_WAIT_MS} milliseconds, not {value:?}")
            })?;
        wait = Some(Duration::from_millis(ms));
    }
    Ok(wait)
}

/// Dispatches one request to its handler.
fn route(state: &ServerState, request: &Request, segments: &[&str]) -> Response {
    let wait = match long_poll_wait(&request.query) {
        Ok(wait) => wait,
        Err(msg) => return Response::error(400, &msg),
    };
    match (request.method.as_str(), segments) {
        // The long-poll: answer once the job is terminal or `wait_ms`
        // has passed, whichever comes first.
        ("GET", ["jobs", id]) => with_job(state, id, |job| {
            let job = match wait {
                Some(wait) => state.jobs.wait_terminal(job.id, wait).unwrap_or(job),
                None => job,
            };
            Response::json(200, job_json(&job))
        }),
        _ if wait.is_some() => Response::error(400, "wait_ms applies only to GET /jobs/{id}"),
        ("POST", ["jobs"]) => submit_job(state, &request.body),
        ("POST", ["plan"]) => plan_only(state, &request.body),
        ("GET", ["jobs", id, "result"]) => with_job(state, id, |job| job_result(state, &job)),
        ("DELETE", ["jobs", id]) => with_job(state, id, |job| {
            // infallible: with_job just confirmed the id exists.
            let now = state.jobs.cancel(job.id).expect("job exists");
            let mut job = job;
            job.state = now;
            Response::json(200, job_json(&job))
        }),
        ("POST", ["sessions"]) => state.sessions.create(&request.body, state.stopping()),
        ("GET", ["sessions"]) => state.sessions.list(),
        ("POST", ["sessions", id, "batch"]) => {
            state.sessions.batch(id, &request.body, state.stopping())
        }
        ("GET", ["sessions", id, "stats"]) | ("GET", ["sessions", id]) => state.sessions.stats(id),
        ("DELETE", ["sessions", id]) => state.sessions.delete(id),
        ("GET", ["store", "stats"]) => store_stats(state),
        ("GET", ["metrics"]) => Response::text(200, global().encode()),
        ("GET", ["healthz"]) => Response::json(200, "{\"ok\":true}"),
        ("POST", ["shutdown"]) => {
            state.stop();
            Response::json(200, "{\"ok\":true}")
        }
        (_, ["jobs", ..])
        | (_, ["plan"])
        | (_, ["sessions", ..])
        | (_, ["store", ..])
        | (_, ["metrics"])
        | (_, ["healthz"])
        | (_, ["shutdown"]) => Response::error(
            405,
            &format!("{} not supported on {}", request.method, request.path),
        ),
        _ => Response::error(404, &format!("no such route {}", request.path)),
    }
}

/// Parses `{id}` and hands the job snapshot to `f`, or answers 404.
fn with_job(state: &ServerState, id: &str, f: impl FnOnce(JobRecord) -> Response) -> Response {
    match id
        .parse::<u64>()
        .ok()
        .and_then(|n| state.jobs.get(JobId(n)))
    {
        Some(job) => f(job),
        None => Response::error(404, &format!("no such job {id:?}")),
    }
}

/// Loads a stored result, with the chaos `StoreRead` seam in front and
/// quarantine-on-corruption behind: a document that fails to decode is
/// moved to `quarantine/` (bytes preserved) so the next lookup is a
/// clean miss instead of a repeated decode failure.
fn load_result(state: &ServerState, fp: u64) -> Result<Option<Vec<Table>>, ServeError> {
    if state.chaos_fires(ChaosPoint::StoreRead) {
        state.jobs.count(|c| c.result_errors += 1);
        return Err(ServeError::Protocol(
            "chaos: injected store-read fault".into(),
        ));
    }
    state.store.results.fetch(fp).map_err(|e| {
        state.jobs.count(|c| c.result_errors += 1);
        if let LoadError::Corrupt {
            quarantined: true, ..
        } = e
        {
            state.jobs.count(|c| c.quarantined += 1);
        }
        state.store.results.error(fp, e).into()
    })
}

/// Persists a computed result, with the chaos `StoreWrite` seam in
/// front.
fn save_result(
    state: &ServerState,
    fp: u64,
    experiment: &str,
    tables: &[Table],
) -> Result<(), ServeError> {
    if state.chaos_fires(ChaosPoint::StoreWrite) {
        return Err(ServeError::Protocol(
            "chaos: injected store-write fault".into(),
        ));
    }
    Ok(state.store.results.save(fp, experiment, tables)?)
}

/// Plans `spec` with `streams` as its stream cache against `store`'s
/// DAG and result directories: every artifact node its run would
/// resolve, plus the final merged-table node (keyed by the whole-spec
/// fingerprint, like the result store itself).
fn plan_against(store: &Store, streams: StreamCache, spec: &JobSpec, fingerprint: u64) -> Plan {
    let mut ctx = spec.build_ctx();
    ctx.streams = streams;
    let mut plan = plan_experiment(spec.experiment, &ctx, Some(&store.dag));
    let table_bytes = store.results.size_of(fingerprint);
    plan.push(
        NodeKind::Table,
        fingerprint,
        format!("{} merged table", spec.experiment.label()),
        table_bytes.is_some(),
        table_bytes.unwrap_or(0),
    );
    plan
}

/// Plans `spec` against the daemon's live stream cache and store.
/// Observes planner latency.
fn plan_spec(state: &ServerState, spec: &JobSpec, fingerprint: u64) -> (Plan, Duration) {
    let started = Instant::now();
    let plan = plan_against(&state.store, state.streams.clone(), spec, fingerprint);
    let elapsed = started.elapsed();
    METRICS.plan_latency.observe_duration(elapsed);
    (plan, elapsed)
}

/// The compact plan summary attached to submission responses.
fn plan_summary_json(plan: &Plan, elapsed: Duration) -> Value {
    let num = |n: u64| Value::Num(n as f64);
    Value::object(vec![
        ("nodes", num(plan.nodes.len() as u64)),
        ("hits", num(plan.hits() as u64)),
        ("misses", num(plan.misses() as u64)),
        ("cached_streams", num(plan.hits_of(NodeKind::Stream) as u64)),
        ("cached_bytes", num(plan.cached_bytes())),
        ("plan_ms", Value::Num(elapsed.as_secs_f64() * 1000.0)),
    ])
}

/// The full plan document: per-node kind, fingerprint, hit/miss and
/// stored size. Shared by `POST /plan` and the offline `repro explain`.
pub(crate) fn plan_document(
    spec: &JobSpec,
    fingerprint: u64,
    plan: &Plan,
    elapsed: Duration,
) -> Value {
    Value::object(vec![
        (
            "experiment",
            Value::Str(spec.experiment.label().to_string()),
        ),
        ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ("summary", plan_summary_json(plan, elapsed)),
        (
            "nodes",
            Value::Array(
                plan.nodes
                    .iter()
                    .map(|n| {
                        Value::object(vec![
                            ("kind", Value::Str(n.kind.label().to_string())),
                            ("fp", Value::Str(format!("{:016x}", n.fp))),
                            ("detail", Value::Str(n.detail.clone())),
                            ("hit", Value::Bool(n.hit)),
                            ("bytes", Value::Num(n.bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Plans a spec against an on-disk store without a running daemon —
/// the offline backend of `repro explain`. Memory-residency hits are
/// naturally absent (no live cache), so stream/index state reflects
/// disk alone.
pub(crate) fn plan_offline(
    store_dir: &std::path::Path,
    spec: &JobSpec,
) -> Result<Value, ServeError> {
    let store = Store::open(store_dir)?;
    let started = Instant::now();
    let fingerprint = spec.fingerprint();
    let streams = StreamCache::with_store(store.streams.clone(), None);
    let plan = plan_against(&store, streams, spec, fingerprint);
    Ok(plan_document(spec, fingerprint, &plan, started.elapsed()))
}

/// `POST /plan`: resolve a spec against the DAG without admitting it —
/// per-node kind, fingerprint, hit/miss and stored size, for
/// `repro explain` and CI cache-reuse assertions.
fn plan_only(state: &ServerState, body: &str) -> Response {
    let spec = match JobSpec::from_json_text(body) {
        Ok(spec) => spec,
        Err(ServeError::Protocol(msg)) => return Response::error(400, &msg),
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let fingerprint = spec.fingerprint();
    let (plan, elapsed) = plan_spec(state, &spec, fingerprint);
    Response::json(
        200,
        plan_document(&spec, fingerprint, &plan, elapsed).render(),
    )
}

/// The `Retry-After` hint for a rejected submission: the median observed
/// queue wait, scaled by how much queue is ahead of the client per
/// worker. Clamped to a sane range — the hint is advice, not a promise.
fn retry_after_hint(state: &ServerState) -> u64 {
    let queued = state.queue.len() as f64;
    let per_job = METRICS.queue_wait.quantile(0.5).unwrap_or(1.0).max(0.25);
    let estimate = per_job * queued.max(1.0) / state.workers.max(1) as f64;
    (estimate.ceil() as u64).clamp(1, 60)
}

/// Counts and answers one rejected submission.
fn reject(state: &ServerState, status: u16, reason: &'static str, message: &str) -> Response {
    state.jobs.count(|c| c.rejected += 1);
    admission_rejected(reason).inc();
    let secs = match reason {
        "shutdown" => 5,
        _ => retry_after_hint(state),
    };
    Response::error(status, message).retry_after(secs)
}

/// `POST /jobs`: validate, check the store, then run admission control
/// and either enqueue (HTTP 202) or refuse with a typed, retryable
/// answer (HTTP 429/503 + `Retry-After`).
///
/// The store check deliberately runs *before* admission: a duplicate of
/// finished work is answered from disk (HTTP 200) for free, so overload
/// never makes already-computed answers unavailable.
fn submit_job(state: &ServerState, body: &str) -> Response {
    let spec = match JobSpec::from_json_text(body) {
        Ok(spec) => spec,
        Err(ServeError::Protocol(msg)) => return Response::error(400, &msg),
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let fingerprint = spec.fingerprint();
    // Plan before admission: the resolver walks the artifact graph and
    // tells the client exactly which nodes (streams, annotations,
    // per-policy replays, the merged table) are already on disk — a
    // whole-spec table hit is just the plan's last node hitting.
    let (plan, plan_elapsed) = plan_spec(state, &spec, fingerprint);
    let plan_summary = plan_summary_json(&plan, plan_elapsed);
    if let Ok(Some(_tables)) = load_result(state, fingerprint) {
        let job = state.jobs.submit(spec, fingerprint);
        state.jobs.count(|c| c.result_hits += 1);
        let now = state
            .jobs
            .transition(job.id, JobState::Done { from_store: true })
            // infallible: the job was inserted above.
            .expect("job exists");
        let mut job = job;
        job.state = now;
        return Response::json(200, job_value(&job, Some(plan_summary)).render());
    }
    if state.stopping() {
        return reject(state, 503, "shutdown", "daemon is draining");
    }
    if state.chaos_fires(ChaosPoint::QueueFull) {
        // Indistinguishable from a real queue-full answer on purpose:
        // the client contract under test is "handle 429 correctly".
        return reject(state, 429, "queue_full", "job queue is full");
    }
    if state.jobs.inflight() >= state.max_inflight as u64 {
        return reject(
            state,
            429,
            "inflight",
            &format!("{} jobs already in flight", state.max_inflight),
        );
    }
    match state
        .queue
        .push_with(|| state.jobs.submit(spec, fingerprint))
    {
        Ok(job) => Response::json(202, job_value(&job, Some(plan_summary)).render()),
        Err(PushError::Full) => reject(state, 429, "queue_full", "job queue is full"),
        Err(PushError::Closed) => reject(state, 503, "shutdown", "daemon is draining"),
    }
}

/// `GET /jobs/{id}/result`.
fn job_result(state: &ServerState, job: &JobRecord) -> Response {
    match &job.state {
        JobState::Done { from_store } => match load_result(state, job.fingerprint) {
            Ok(Some(tables)) => {
                let doc = Value::object(vec![
                    ("id", Value::Num(job.id.0 as f64)),
                    (
                        "experiment",
                        Value::Str(job.spec.experiment.label().to_string()),
                    ),
                    (
                        "fingerprint",
                        Value::Str(format!("{:016x}", job.fingerprint)),
                    ),
                    ("from_store", Value::Bool(*from_store)),
                    (
                        "tables",
                        Value::Array(
                            tables
                                .iter()
                                .map(llc_sharing::json::table_to_json)
                                .collect(),
                        ),
                    ),
                ]);
                Response::json(200, doc.render())
            }
            Ok(None) => Response::error(500, "result vanished from the store"),
            Err(e) => Response::error(500, &e.to_string()),
        },
        JobState::Failed { reason } => Response::error(409, &format!("job failed: {reason}")),
        JobState::Cancelled => Response::error(409, "job was cancelled"),
        _ => Response::error(409, &format!("job is still {}", job.state.label())),
    }
}

/// `GET /store/stats`: stream-cache counters, disk usage of both stores,
/// the job counters and the admission/queue state.
fn store_stats(state: &ServerState) -> Response {
    let s = state.streams.stats();
    let (stream_files, stream_bytes) = state.store.streams.disk_stats().unwrap_or((0, 0));
    let (result_files, result_bytes) = state.store.results.disk_stats().unwrap_or((0, 0));
    let (dag_files, dag_bytes) = state.store.dag.disk_stats().unwrap_or((0, 0));
    let d = state.store.dag.stats();
    let c = state.jobs.counters();
    let num = |n: u64| Value::Num(n as f64);
    let doc = Value::object(vec![
        (
            "streams",
            Value::object(vec![
                ("memory_hits", num(s.hits)),
                ("disk_hits", num(s.disk_hits)),
                ("misses", num(s.misses)),
                ("evictions", num(s.evictions)),
                ("disk_errors", num(s.disk_errors)),
                ("quarantined", num(s.quarantined)),
                ("memory_bytes", num(s.bytes)),
                ("memory_limit", s.limit.map_or(Value::Null, num)),
                ("disk_files", num(stream_files)),
                ("disk_bytes", num(stream_bytes)),
            ]),
        ),
        (
            "results",
            Value::object(vec![
                ("hits", num(c.result_hits)),
                ("errors", num(c.result_errors)),
                ("quarantined", num(c.quarantined)),
                ("disk_files", num(result_files)),
                ("disk_bytes", num(result_bytes)),
            ]),
        ),
        (
            "dag",
            Value::object(vec![
                ("replays_executed", num(d.replayed)),
                ("replay_hits", num(d.hits_of(NodeKind::Replay))),
                ("replay_misses", num(d.misses_of(NodeKind::Replay))),
                ("annotation_hits", num(d.hits_of(NodeKind::Annotations))),
                ("annotation_misses", num(d.misses_of(NodeKind::Annotations))),
                ("quarantined", num(d.quarantined)),
                ("disk_errors", num(d.disk_errors)),
                ("disk_files", num(dag_files)),
                ("disk_bytes", num(dag_bytes)),
            ]),
        ),
        (
            "jobs",
            Value::object(vec![
                ("submitted", num(c.submitted)),
                ("completed", num(c.completed)),
                ("failed", num(c.failed)),
                ("cancelled", num(c.cancelled)),
                ("simulated", num(c.simulated)),
                ("expired", num(c.expired)),
            ]),
        ),
        (
            "admission",
            Value::object(vec![
                ("rejected", num(c.rejected)),
                ("queued", num(state.queue.len() as u64)),
                ("queue_cap", num(state.queue.cap as u64)),
                ("inflight", num(state.jobs.inflight())),
                ("inflight_cap", num(state.max_inflight as u64)),
                (
                    "connections",
                    num(state.conns.load(Ordering::Relaxed) as u64),
                ),
                ("connection_cap", num(state.max_connections as u64)),
                ("sessions", num(state.sessions.open_count() as u64)),
                ("session_cap", num(state.sessions.cap() as u64)),
            ]),
        ),
        (
            "budget",
            Value::object(vec![
                ("granted", num(state.workers as u64)),
                ("available", num(llc_sharing::budget::available() as u64)),
            ]),
        ),
    ]);
    Response::json(200, doc.render())
}

/// The wire form of a job snapshot.
fn job_json(job: &JobRecord) -> String {
    job_value(job, None).render()
}

/// The job snapshot as a JSON value, optionally carrying the DAG plan
/// summary computed at submission.
fn job_value(job: &JobRecord, plan: Option<Value>) -> Value {
    let mut fields = vec![
        ("id", Value::Num(job.id.0 as f64)),
        ("state", Value::Str(job.state.label().to_string())),
        (
            "experiment",
            Value::Str(job.spec.experiment.label().to_string()),
        ),
        (
            "fingerprint",
            Value::Str(format!("{:016x}", job.fingerprint)),
        ),
        ("summary", Value::Str(job.spec.summary())),
    ];
    if let JobState::Done { from_store } = &job.state {
        fields.push(("from_store", Value::Bool(*from_store)));
    }
    if let JobState::Failed { reason } = &job.state {
        fields.push(("reason", Value::Str(reason.clone())));
    }
    if let Some(plan) = plan {
        fields.push(("plan", plan));
    }
    Value::object(fields)
}

/// Pops queued jobs and executes them until the queue closes.
fn worker_loop(state: &ServerState) {
    while let Some(id) = state.queue.pop() {
        execute_job(state, id);
    }
}

/// The deadline in effect for a job: the client's request, clamped by
/// the server's `--timeout` ceiling. Measured from admission, so queue
/// wait counts against it.
fn effective_deadline(spec: &JobSpec, server_max: Option<Duration>) -> Option<Duration> {
    let requested = spec.deadline_secs.map(Duration::from_secs);
    match (requested, server_max) {
        (Some(d), Some(max)) => Some(d.min(max)),
        (Some(d), None) => Some(d),
        (None, _) => None,
    }
}

/// Fails a job because its deadline lapsed.
fn expire_job(state: &ServerState, id: JobId, deadline: Duration, phase: &str) {
    state.jobs.count(|c| c.expired += 1);
    METRICS.deadline_expired.inc();
    state.jobs.transition(
        id,
        JobState::Failed {
            reason: format!("deadline of {}s exceeded while {phase}", deadline.as_secs()),
        },
    );
}

/// Runs one queued job to a terminal state.
fn execute_job(state: &ServerState, id: JobId) {
    let Some(job) = state.jobs.get(id) else {
        return;
    };
    // Claim the job by transitioning it ourselves: if a cancel (or the
    // drain) won the race between dequeue and here, the transition
    // reports the terminal state and this worker walks away without
    // recording a queue-wait sample or touching the run counters.
    if state.jobs.transition(id, JobState::Running) != Some(JobState::Running) {
        return;
    }
    METRICS
        .queue_wait
        .observe_duration(job.submitted_at.elapsed());
    let run_started = Instant::now();
    let _span = spans::span_with(|| format!("job {} {}", id.0, job.spec.experiment.label()));
    let deadline = effective_deadline(&job.spec, state.timeout);
    if let Some(d) = deadline {
        if job.submitted_at.elapsed() >= d {
            expire_job(state, id, d, "queued");
            return;
        }
    }
    // A duplicate spec submitted moments earlier may have finished while
    // this copy sat in the queue; re-check the store before simulating.
    // (Errors — including injected chaos — fall through to recompute.)
    if let Ok(Some(_)) = load_result(state, job.fingerprint) {
        state.jobs.count(|c| c.result_hits += 1);
        state
            .jobs
            .transition(id, JobState::Done { from_store: true });
        return;
    }
    // This worker is busy from here on: take its permit out of the
    // spare-worker pool (donated back when the guard drops, even on
    // unwind) so concurrent jobs and sharded replays never
    // over-subscribe the `--jobs` grant.
    let _busy = llc_sharing::budget::reclaim_scoped(1);
    let mut ctx = job.spec.build_ctx();
    // All jobs share the daemon's bounded, store-backed stream cache and
    // the artifact DAG: pure-stats replays resolve through cached
    // per-policy partials instead of re-simulating.
    ctx.streams = state.streams.clone();
    ctx.dag = Some(state.store.dag.clone());
    let experiment = job.spec.experiment;
    let label = format!("{}-job{}", experiment.label(), id.0);
    // The watchdog is the tighter of the server budget and what remains
    // of the job's deadline after its queue wait.
    let remaining = deadline.map(|d| d.saturating_sub(job.submitted_at.elapsed()));
    let limit = match (state.timeout, remaining) {
        (Some(t), Some(r)) => Some(t.min(r)),
        (t, r) => t.or(r),
    };
    let deadline_binds = match (remaining, state.timeout) {
        (Some(r), Some(t)) => r < t,
        (Some(_), None) => true,
        (None, _) => false,
    };
    let chaos_panic = state.chaos_fires(ChaosPoint::WorkerPanic);
    let outcome = run_guarded(&label, limit, &job.cancel, move || {
        if chaos_panic {
            panic!("chaos: injected worker panic");
        }
        run_experiment(experiment, &ctx)
    });
    match outcome {
        GuardedOutcome::Finished(Ok(tables)) => {
            state.jobs.count(|c| c.simulated += 1);
            match save_result(state, job.fingerprint, experiment.label(), &tables) {
                Ok(()) => {
                    save_manifest(state, &job);
                    state
                        .jobs
                        .transition(id, JobState::Done { from_store: false });
                }
                Err(e) => {
                    // GET result reads from disk, so an unsaved result is
                    // a failed job, not a silent success.
                    state.jobs.transition(
                        id,
                        JobState::Failed {
                            reason: format!("persisting result: {e}"),
                        },
                    );
                }
            }
        }
        GuardedOutcome::Finished(Err(e)) => {
            if deadline_binds && matches!(e, llc_sharing::RunError::TimedOut { .. }) {
                // infallible: deadline_binds implies remaining is Some.
                expire_job(state, id, deadline.expect("deadline set"), "running");
            } else {
                state.jobs.transition(
                    id,
                    JobState::Failed {
                        reason: e.to_string(),
                    },
                );
            }
        }
        // The cancel handler already moved the job to Cancelled; the
        // abandoned thread's result is discarded.
        GuardedOutcome::Cancelled => {}
    }
    METRICS.job_run.observe_duration(run_started.elapsed());
}

/// Records which DAG nodes a completed job's artifacts resolve to —
/// re-planned now that every node exists — so `repro gc --verify` can
/// tell live partials from orphans. Best-effort: a manifest write
/// failure costs GC precision, never the job.
fn save_manifest(state: &ServerState, job: &JobRecord) {
    let (plan, _) = plan_spec(state, &job.spec, job.fingerprint);
    let manifest = Manifest {
        nodes: plan.nodes.iter().map(|n| (n.kind, n.fp)).collect(),
    };
    if state
        .store
        .dag
        .save_manifest(job.fingerprint, &manifest)
        .is_err()
    {
        state.store.dag.record_disk_error();
    }
}

/// Worker 0's post-accept phase: close the queue, checkpoint what was
/// still waiting, give running jobs a bounded grace period, then cancel
/// stragglers so the pool can join.
fn drain(state: &Arc<ServerState>) {
    // Live streaming sessions checkpoint first: their sliding-window
    // state must survive the restart exactly like queued specs do.
    state.sessions.checkpoint_all();
    let drained = state.queue.drain_and_close();
    let mut specs = Vec::new();
    for id in drained {
        let Some(job) = state.jobs.get(id) else {
            continue;
        };
        if job.state.is_terminal() {
            continue;
        }
        specs.push(job.spec.clone());
        state.jobs.transition(
            id,
            JobState::Failed {
                reason: "daemon stopping; spec checkpointed for the next start".into(),
            },
        );
    }
    if !specs.is_empty() {
        let doc = Value::object(vec![
            ("version", Value::Num(1.0)),
            (
                "specs",
                Value::Array(specs.iter().map(JobSpec::to_json).collect()),
            ),
        ]);
        let path = state.store.root.join(CHECKPOINT_FILE);
        // Checkpoint failure only costs the queued work its restart
        // survival, never the drain itself.
        let _ = atomic_write(&path, doc.render().as_bytes());
    }
    state.jobs.wait_idle(state.grace);
    // Past grace: abandon what is still running, exactly like a client
    // cancel — the guarded threads are detached and their results
    // discarded.
    for id in state.jobs.running_ids() {
        state.jobs.cancel(id);
    }
}

/// Re-admits the queued specs a previous drain checkpointed. Unparsable
/// files (or specs past the queue bound) are dropped — the checkpoint is
/// best-effort continuity, not a durability promise.
fn restore_checkpoint(state: &ServerState) {
    let path = state.store.root.join(CHECKPOINT_FILE);
    let Ok(text) = fs::read_to_string(&path) else {
        return;
    };
    let _ = fs::remove_file(&path);
    let Ok(doc) = json::parse(&text) else { return };
    let Some(items) = doc.field("specs").and_then(Value::as_array) else {
        return;
    };
    for item in items {
        let Ok(spec) = JobSpec::from_json(item) else {
            continue;
        };
        let fingerprint = spec.fingerprint();
        let _ = state
            .queue
            .push_with(|| state.jobs.submit(spec, fingerprint));
    }
}
