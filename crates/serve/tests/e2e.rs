//! End-to-end exercise of the daemon over a real socket: submit → poll →
//! result, duplicate submission as a store hit, cancellation semantics,
//! error answers, and — the core promise of the persistent store — a
//! daemon *restart* after which the same spec still completes without a
//! single simulation.

use std::time::Duration;

use llc_serve::client::job_id_of;
use llc_serve::jobs::JobId;
use llc_serve::{Client, JobSpec, Server, ServerConfig};
use llc_sharing::json::Value;
use llc_sharing::ExperimentId;
use llc_trace::App;

/// Spawns a daemon on an ephemeral port over `store`; returns the client
/// and a join handle that resolves once the daemon stops.
fn start_daemon(store: &std::path::Path) -> (Client, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new("127.0.0.1:0", store);
    config.jobs = 2;
    config.timeout = Some(Duration::from_secs(120));
    let server = Server::bind(&config).expect("bind daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (Client::new(addr.to_string()), handle)
}

fn tiny_spec() -> JobSpec {
    JobSpec {
        experiment: ExperimentId::Fig1,
        preset: "test".into(),
        scale: None,
        threads: None,
        apps: Some(vec![App::Fft, App::Dedup]),
        deadline_secs: None,
    }
}

fn stat(stats: &Value, group: &str, field: &str) -> u64 {
    stats
        .field(group)
        .and_then(|g| g.field(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing {group}.{field} in {}", stats.render()))
}

fn state_of(doc: &Value) -> String {
    doc.field("state")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

/// The sample value of the series whose name (with any labels) is
/// exactly `series`, or 0.0 when it is not exposed.
fn sample(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series).map(str::trim))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn daemon_serves_jobs_and_survives_restart() {
    let store = std::env::temp_dir().join(format!("llc-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // ---- First daemon lifetime: compute, then hit. ----
    let (client, handle) = start_daemon(&store);
    let health = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(health.field("ok"), Some(&Value::Bool(true)));

    // Submit and wait: the first run must actually simulate.
    let submitted = client.submit(&tiny_spec()).expect("submit");
    let id = job_id_of(&submitted).expect("job id");
    let finished = client.watch(id, Duration::from_secs(120)).expect("watch");
    assert_eq!(state_of(&finished), "done", "status: {}", finished.render());
    assert_eq!(finished.field("from_store"), Some(&Value::Bool(false)));

    let result = client.result(id).expect("result");
    let tables = result
        .field("tables")
        .and_then(Value::as_array)
        .expect("tables");
    assert!(!tables.is_empty(), "fig1 produces tables");
    let first_render = result.render();

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "jobs", "simulated"), 1);
    assert!(
        stat(&stats, "streams", "misses") > 0,
        "first run records streams"
    );
    assert!(
        stat(&stats, "streams", "disk_files") > 0,
        "recordings are persisted"
    );
    assert_eq!(stat(&stats, "results", "disk_files"), 1);
    assert!(
        stat(&stats, "admission", "inflight_cap") >= 1,
        "admission state is exposed"
    );

    // The Prometheus exposition covers the completed job, the HTTP
    // traffic we just generated, and the stream cache behind the run.
    // The registry is process-global and this binary's tests share it,
    // so assert lower bounds, not exact counts.
    let metrics = client.metrics().expect("scrape /metrics");
    assert!(
        sample(&metrics, "llc_jobs_total{state=\"done\"}") >= 1.0,
        "job lifecycle series missing:\n{metrics}"
    );
    assert!(
        sample(
            &metrics,
            "llc_http_requests_total{method=\"POST\",route=\"/jobs\"}"
        ) >= 1.0,
        "request counter series missing:\n{metrics}"
    );
    assert!(
        sample(
            &metrics,
            "llc_http_request_seconds_bucket{route=\"/jobs\",le=\"+Inf\"}"
        ) >= 1.0,
        "latency histogram missing:\n{metrics}"
    );
    assert!(
        sample(&metrics, "llc_job_run_seconds_count") >= 1.0,
        "run timing missing:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE llc_stream_cache_misses_total counter"),
        "stream-cache series missing:\n{metrics}"
    );
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparsable sample {value:?} in {line:?}"
        );
    }

    // Re-submitting the identical spec is a store hit: answered `done`
    // at submission time, no new simulation, identical tables.
    let dup = client.submit(&tiny_spec()).expect("resubmit");
    assert_eq!(state_of(&dup), "done", "duplicate: {}", dup.render());
    assert_eq!(dup.field("from_store"), Some(&Value::Bool(true)));
    assert_eq!(dup.field("fingerprint"), submitted.field("fingerprint"));
    let dup_id = job_id_of(&dup).expect("dup id");
    assert_ne!(dup_id, id, "both submissions are real, completed jobs");
    let dup_result = client.result(dup_id).expect("dup result");
    assert_eq!(
        dup_result.field("tables").map(Value::render),
        result.field("tables").map(Value::render),
        "duplicate submission returns identical tables"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "jobs", "simulated"), 1, "no second simulation");
    assert_eq!(stat(&stats, "results", "hits"), 1);
    assert_eq!(stat(&stats, "jobs", "completed"), 2);

    // Cancellation: terminal jobs stay terminal; unknown jobs are 404;
    // malformed submissions are 400.
    let cancelled = client.cancel(id).expect("cancel finished job");
    assert_eq!(state_of(&cancelled), "done", "terminal state sticks");
    let err = client.status(JobId(999_999)).expect_err("unknown job");
    assert!(
        matches!(err, llc_serve::ServeError::Api { status: 404, .. }),
        "{err}"
    );
    let err = client
        .request("POST", "/jobs", Some("{\"experiment\":\"nope\"}"))
        .expect_err("bad spec");
    assert!(
        matches!(err, llc_serve::ServeError::Api { status: 400, .. }),
        "{err}"
    );
    let err = client
        .request("GET", "/no/such/route", None)
        .expect_err("bad route");
    assert!(
        matches!(err, llc_serve::ServeError::Api { status: 404, .. }),
        "{err}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    // ---- Second daemon lifetime over the same store directory. ----
    // The job table is gone (fresh process), but the content-addressed
    // stores are not: the same spec completes with zero simulations.
    let (client, handle) = start_daemon(&store);
    let resub = client.submit(&tiny_spec()).expect("submit after restart");
    assert_eq!(
        state_of(&resub),
        "done",
        "after restart: {}",
        resub.render()
    );
    assert_eq!(resub.field("from_store"), Some(&Value::Bool(true)));
    let resub_id = job_id_of(&resub).expect("id");
    let resub_result = client.result(resub_id).expect("result after restart");
    assert_eq!(
        resub_result.field("tables").map(Value::render),
        llc_sharing::json::parse(&first_render)
            .expect("parse")
            .field("tables")
            .map(Value::render),
        "tables survive the restart byte-for-byte"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "jobs", "simulated"),
        0,
        "restart: nothing re-simulated"
    );
    assert_eq!(
        stat(&stats, "streams", "misses"),
        0,
        "restart: nothing re-recorded"
    );
    assert_eq!(stat(&stats, "results", "hits"), 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn cancelling_a_queued_job_prevents_execution() {
    let store = std::env::temp_dir().join(format!("llc-serve-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut config = ServerConfig::new("127.0.0.1:0", &store);
    // A single worker plus a slow job in front keeps the target job
    // deterministically queued while we cancel it.
    config.jobs = 1;
    let server = Server::bind(&config).expect("bind daemon");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    let client = Client::new(addr.to_string());

    // Two distinct filler jobs keep the single worker busy long enough
    // that the target is still queued when the cancel arrives.
    let fillers = [
        JobSpec::new(ExperimentId::Fig2, "test"),
        JobSpec::new(ExperimentId::Fig5, "test"),
    ];
    let filler_ids: Vec<_> = fillers
        .iter()
        .map(|s| job_id_of(&client.submit(s).expect("submit filler")).expect("id"))
        .collect();
    let target = tiny_spec();
    let target_id = job_id_of(&client.submit(&target).expect("submit target")).expect("id");

    let cancelled = client.cancel(target_id).expect("cancel queued");
    assert_eq!(state_of(&cancelled), "cancelled", "{}", cancelled.render());
    let err = client
        .result(target_id)
        .expect_err("no result for a cancelled job");
    assert!(
        matches!(err, llc_serve::ServeError::Api { status: 409, .. }),
        "{err}"
    );

    // The filler jobs still complete normally around it.
    for id in filler_ids {
        let finished = client
            .watch(id, Duration::from_secs(120))
            .expect("watch filler");
        assert_eq!(state_of(&finished), "done");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "jobs", "cancelled"), 1);
    assert_eq!(
        stat(&stats, "jobs", "simulated"),
        2,
        "cancelled job never ran"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&store);
}
