//! The daemon waits on events, not on sleeps. Every stop path ends
//! `Server::run` promptly, on a loopback and on a wildcard listener, and
//! `GET /jobs/{id}?wait_ms=N` answers as soon as the job ends. Each test
//! here hangs or runs past its bound if a wake-up goes missing.
//!
//! SIGTERM is not exercised in-process: the signal flag is process-wide
//! and never resets, so raising it would stop every daemon this test
//! binary starts. CI's serve-smoke job sends a real SIGTERM instead.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use llc_serve::client::job_id_of;
use llc_serve::jobs::JobId;
use llc_serve::{Client, JobSpec, ServeError, Server, ServerConfig, ServerControl};
use llc_sharing::json::Value;
use llc_sharing::ExperimentId;

struct Daemon {
    client: Client,
    control: ServerControl,
    /// Receives the instant `run()` returned.
    stopped: mpsc::Receiver<Instant>,
    thread: JoinHandle<()>,
}

/// Starts a one-worker daemon on `listen` over `store`; its client
/// always talks to the loopback, whatever address the listener is bound
/// to.
fn start(listen: &str, store: &Path) -> Daemon {
    let mut config = ServerConfig::new(listen, store);
    config.jobs = 1;
    config.timeout = Some(Duration::from_secs(120));
    let server = Server::bind(&config).expect("bind daemon");
    let port = server.local_addr().port();
    let control = server.control();
    let (tx, stopped) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        server.run().expect("daemon run");
        let _ = tx.send(Instant::now());
    });
    let client = Client::new(SocketAddr::from(([127, 0, 0, 1], port)).to_string());
    Daemon {
        client,
        control,
        stopped,
        thread,
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llc-wakeups-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn state_of(doc: &Value) -> String {
    doc.field("state")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

fn submit(client: &Client, experiment: ExperimentId) -> JobId {
    let doc = client
        .submit(&JobSpec::new(experiment, "test"))
        .expect("submit");
    job_id_of(&doc).expect("job id")
}

fn poll(client: &Client, id: JobId, query: &str) -> Result<Value, ServeError> {
    client.request("GET", &format!("/jobs/{id}?{query}"), None)
}

#[test]
fn every_stop_path_returns_from_run_within_a_second() {
    for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
        for via_http in [false, true] {
            let store = store_dir(&format!(
                "stop-{}-{via_http}",
                listen.replace([':', '.'], "_")
            ));
            let daemon = start(listen, &store);
            // Once this answers, the accept loop is back in a blocking
            // `accept` with nothing else to wake it.
            daemon
                .client
                .request("GET", "/healthz", None)
                .expect("healthz");
            let asked = Instant::now();
            let path = if via_http {
                daemon.client.shutdown().expect("POST /shutdown");
                "POST /shutdown"
            } else {
                daemon.control.shutdown();
                "ServerControl::shutdown"
            };
            let stopped = daemon
                .stopped
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("run() still going 1 s after {path} on {listen}"));
            assert!(stopped.duration_since(asked) < Duration::from_secs(1));
            daemon.thread.join().expect("daemon thread");
            let _ = std::fs::remove_dir_all(&store);
        }
    }
}

#[test]
fn long_poll_answers_when_the_job_ends() {
    let store = store_dir("long-poll");
    let daemon = start("127.0.0.1:0", &store);
    let client = &daemon.client;
    // One worker and a filler job in front keep the jobs behind it
    // queued until the filler ends.
    let filler = submit(client, ExperimentId::Fig5);
    let short = submit(client, ExperimentId::Table1);
    let target = submit(client, ExperimentId::Fig1);

    // A job that is still queued: the answer is its current state, once
    // the requested wait has passed.
    let asked = Instant::now();
    let doc = poll(client, short, "wait_ms=50").expect("long-poll");
    assert!(asked.elapsed() >= Duration::from_millis(50));
    assert_eq!(state_of(&doc), "queued", "{}", doc.render());

    for query in [
        "wait_ms=abc",
        "wait_ms=999999",
        "foo=1",
        "wait_ms=1&wait_ms=2",
    ] {
        let err = poll(client, short, query).expect_err(query);
        assert!(
            matches!(err, ServeError::Api { status: 400, .. }),
            "{query}: {err}"
        );
    }
    let err = client
        .request("GET", "/healthz?wait_ms=10", None)
        .expect_err("wait_ms on another route");
    assert!(matches!(err, ServeError::Api { status: 400, .. }), "{err}");

    // `Client::watch` returns within 100 ms of the terminal transition.
    // The transition is a cancel, so the test knows when it happened;
    // the watch is in flight once the daemon counts its connection next
    // to the stats request's own.
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let status = client
                .watch(target, Duration::from_secs(60))
                .expect("watch");
            (status, Instant::now())
        });
        let waiting = Instant::now();
        let connections = || {
            let stats = client.stats().expect("stats");
            stats
                .field("admission")
                .and_then(|a| a.field("connections"))
                .and_then(Value::as_u64)
                .expect("admission.connections")
        };
        while connections() < 2 {
            assert!(
                waiting.elapsed() < Duration::from_secs(30),
                "the watch never reached the daemon"
            );
        }
        let cancelled_at = Instant::now();
        let cancelled = client.cancel(target).expect("cancel");
        assert_eq!(state_of(&cancelled), "cancelled");
        let (status, returned_at) = watcher.join().expect("watcher");
        assert_eq!(state_of(&status), "cancelled", "{}", status.render());
        let lag = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            lag < Duration::from_millis(100),
            "watch returned {lag:?} after the cancel"
        );
    });

    // The short job is next in line once the filler ends; it answers
    // `done` as soon as it does, well before the requested 5 s.
    let doc = client
        .watch(filler, Duration::from_secs(120))
        .expect("watch filler");
    assert_eq!(state_of(&doc), "done", "{}", doc.render());
    let asked = Instant::now();
    let doc = poll(client, short, "wait_ms=5000").expect("long-poll");
    let waited = asked.elapsed();
    assert_eq!(state_of(&doc), "done", "after {waited:?}: {}", doc.render());
    assert!(waited < Duration::from_secs(4), "answered after {waited:?}");

    daemon.control.shutdown();
    daemon
        .stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("run() returns after ServerControl::shutdown");
    daemon.thread.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&store);
}
