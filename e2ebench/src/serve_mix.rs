//! `serve-warm-mix`: an `llc-serve` daemon over a warmed store.
//!
//! Set-up warms a fresh store with fig5/fig7/fig8/abl1/abl3 on the test
//! preset's four apps, stops the daemon and starts a new one over the
//! same store, so its memory caches are cold and only the disk is warm.
//! Set-up runs three times (`setup_s` is the median) and the three warmed
//! stores must be byte-identical; the last daemon serves the run.
//!
//! Two closed-loop clients then submit jobs and fetch their tables. Each
//! client's seeded sequence is built from blocks holding one job of each
//! class in random order, so the classes are equally frequent by design
//! (there is no production traffic to take a mix from, and equal shares
//! give every class the same number of latency samples):
//!
//! * `hit` repeats a warmed spec: answered from the result store;
//! * `dag-hit` runs a warmed experiment on a proper subset of the apps:
//!   every replay node hits the artifact DAG, only the result is written;
//! * `replay` runs a non-DAG experiment (table2, fig1–fig4, fig6) on one
//!   app: streams load from the store and replays run.
//!
//! After a `dag-hit` or `replay` job the benchmark deletes that spec's
//! stored result, so the same spec stays in its class for the whole run.
//! The two clients draw recompute specs from disjoint halves, so one
//! client never deletes a result the other is waiting on. Every job's
//! tables must match `goldens/serve-warm-mix.digests`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use llc_serve::client::job_id_of;
use llc_serve::{Client, JobSpec, ResultStore, RetryPolicy, Server, ServerConfig, ServerControl};
use llc_sharing::json::{table_from_json, Value};
use llc_sharing::{ExperimentCtx, ExperimentId};
use llc_trace::App;

use crate::layers;
use crate::util::{
    digest_tables, fnv1a64, median, ms_since, peak_rss_mib, quantile, read_goldens, write_goldens,
    Outcome, Rng, Scratch,
};

const GOLDENS: &str = "serve-warm-mix.digests";
const SETUP_REPS: usize = 3;
const CLIENTS: usize = 2;
const DAEMON_JOBS: usize = 2;
/// The benchmark's own status poll interval for recompute jobs.
const POLL: Duration = Duration::from_millis(2);
/// Untraced/traced window pairs in a traced run.
const TRACE_ROUNDS: usize = 4;
/// Upper bound on one job, far above any expected latency.
const JOB_DEADLINE: Duration = Duration::from_secs(120);

const WARMED: [ExperimentId; 5] = [
    ExperimentId::Fig5,
    ExperimentId::Fig7,
    ExperimentId::Fig8,
    ExperimentId::Abl1,
    ExperimentId::Abl3,
];
const NON_DAG: [ExperimentId; 6] = [
    ExperimentId::Table2,
    ExperimentId::Fig1,
    ExperimentId::Fig2,
    ExperimentId::Fig3,
    ExperimentId::Fig4,
    ExperimentId::Fig6,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Hit,
    DagHit,
    Replay,
}

impl Class {
    const ALL: [Class; 3] = [Class::Hit, Class::DagHit, Class::Replay];

    fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::DagHit => "dag_hit",
            Class::Replay => "replay",
        }
    }
}

/// A test-preset spec in the daemon's canonical form (apps in suite
/// order), so its fingerprint and tables are exactly the daemon's.
fn spec(id: ExperimentId, apps: Option<Vec<App>>) -> JobSpec {
    let mut s = JobSpec::new(id, "test");
    s.apps = apps;
    JobSpec::from_json(&s.to_json()).expect("a spec built from valid parts round-trips")
}

/// The golden key of a spec: experiment and app set.
fn key(spec: &JobSpec) -> String {
    let apps = match &spec.apps {
        None => "all".to_string(),
        Some(apps) => apps.iter().map(|a| a.label()).collect::<Vec<_>>().join("+"),
    };
    format!("{}:{apps}", spec.experiment.label())
}

fn warm_specs() -> Vec<JobSpec> {
    WARMED.iter().map(|&id| spec(id, None)).collect()
}

/// Every warmed experiment on every non-empty proper subset of the apps.
fn dag_hit_specs() -> Vec<JobSpec> {
    let apps = ExperimentCtx::test().apps;
    let mut out = Vec::new();
    for &id in &WARMED {
        for mask in 1..(1u32 << apps.len()) - 1 {
            let subset = apps
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &a)| a)
                .collect();
            out.push(spec(id, Some(subset)));
        }
    }
    out
}

fn replay_specs() -> Vec<JobSpec> {
    let apps = ExperimentCtx::test().apps;
    let mut out = Vec::new();
    for &id in &NON_DAG {
        for &app in &apps {
            out.push(spec(id, Some(vec![app])));
        }
    }
    out
}

/// Regenerates the golden digests by running every spec in-process.
pub fn write(command: &str) -> Result<(), String> {
    let mut map = BTreeMap::new();
    for s in warm_specs()
        .into_iter()
        .chain(dag_hit_specs())
        .chain(replay_specs())
    {
        let tables = llc_sharing::run_experiment(s.experiment, &s.build_ctx())
            .map_err(|e| format!("{}: {e}", key(&s)))?;
        map.insert(key(&s), digest_tables(&tables));
    }
    write_goldens(GOLDENS, command, &map)
}

/// A daemon running on its own thread, stopped and joined on drop.
pub struct Daemon {
    control: ServerControl,
    thread: Option<JoinHandle<()>>,
    addr: String,
}

impl Daemon {
    pub fn start(store: &Path) -> Result<Daemon, String> {
        let mut config = ServerConfig::new("127.0.0.1:0", store);
        config.jobs = DAEMON_JOBS;
        let server = Server::bind(&config).map_err(|e| e.to_string())?;
        let control = server.control();
        let addr = control.addr().to_string();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("daemon: {e}");
            }
        });
        let d = Daemon {
            control,
            thread: Some(thread),
            addr,
        };
        let client = d.client();
        let t = Instant::now();
        while client.request("GET", "/healthz", None).is_err() {
            if t.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(d)
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_retry(RetryPolicy::none())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.control.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Content digest of every file under `dir` (relative path and bytes).
fn tree_digest(dir: &Path) -> Result<u64, String> {
    fn walk(base: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
        let entries = fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                walk(base, &path, out)?;
            } else {
                let rel = path.strip_prefix(base).map_err(|e| e.to_string())?;
                out.push((rel.display().to_string(), path.clone()));
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, dir, &mut files)?;
    files.sort();
    let mut acc = Vec::new();
    for (rel, path) in files {
        acc.extend_from_slice(rel.as_bytes());
        let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        acc.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
    }
    Ok(fnv1a64(&acc))
}

/// Submits `spec`, waits for it with the benchmark's own poll and fetches
/// its tables. Returns the tables and whether the submit was answered
/// from the store.
fn run_job(client: &Client, spec: &JobSpec) -> Result<(Vec<llc_sharing::Table>, bool), String> {
    let doc = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
    let id = job_id_of(&doc).map_err(|e| e.to_string())?;
    let state_of = |d: &Value| d.field("state").and_then(Value::as_str).map(str::to_string);
    let from_store = state_of(&doc).as_deref() == Some("done");
    let started = Instant::now();
    let mut state = state_of(&doc).unwrap_or_default();
    while !matches!(state.as_str(), "done" | "failed" | "cancelled" | "expired") {
        if started.elapsed() > JOB_DEADLINE {
            return Err(format!("job {id} still {state} after {JOB_DEADLINE:?}"));
        }
        std::thread::sleep(POLL);
        let s = client.status(id).map_err(|e| format!("status: {e}"))?;
        state = state_of(&s).unwrap_or_default();
    }
    if state != "done" {
        return Err(format!("job {id} ended {state}"));
    }
    let result = client.result(id).map_err(|e| format!("result: {e}"))?;
    let tables = result
        .field("tables")
        .and_then(Value::as_array)
        .ok_or("result has no tables")?
        .iter()
        .map(table_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((tables, from_store))
}

/// One set-up: warm a fresh store, stop, restart over it.
fn set_up(dir: &Path) -> Result<(Daemon, f64, f64), String> {
    let started = Instant::now();
    {
        let warm = Daemon::start(dir)?;
        let client = warm.client();
        for s in warm_specs() {
            run_job(&client, &s).map_err(|e| format!("warming {}: {e}", key(&s)))?;
        }
    }
    let warm_s = started.elapsed().as_secs_f64();
    let daemon = Daemon::start(dir)?;
    Ok((daemon, started.elapsed().as_secs_f64(), warm_s))
}

/// The specs one client may draw: hits are shared, recompute specs are
/// split between the clients.
struct Pool {
    hit: Vec<JobSpec>,
    dag_hit: Vec<JobSpec>,
    replay: Vec<JobSpec>,
}

impl Pool {
    fn for_client(c: usize) -> Pool {
        let mine = |v: Vec<JobSpec>| {
            v.into_iter()
                .enumerate()
                .filter(|(i, _)| i % CLIENTS == c)
                .map(|(_, s)| s)
                .collect()
        };
        Pool {
            hit: warm_specs(),
            dag_hit: mine(dag_hit_specs()),
            replay: mine(replay_specs()),
        }
    }

    fn draw(&self, class: Class, rng: &mut Rng) -> &JobSpec {
        let v = match class {
            Class::Hit => &self.hit,
            Class::DagHit => &self.dag_hit,
            Class::Replay => &self.replay,
        };
        &v[rng.below(v.len())]
    }
}

/// One finished job.
struct Sample {
    class: Class,
    ms: f64,
}

/// Runs both clients against `daemon` for `seconds`.
fn drive(
    daemon: &Daemon,
    store: &Path,
    seed: u64,
    seconds: f64,
    goldens: &BTreeMap<String, u64>,
    out: &mut Outcome,
) -> Result<Vec<Sample>, String> {
    let results = ResultStore::open(store.join("results")).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, Vec<String>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = daemon.client();
                let results = &results;
                s.spawn(move || {
                    let pool = Pool::for_client(c);
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    let mut attempted = 0u64;
                    let mut block = Vec::new();
                    while attempted == 0 || Instant::now() < deadline {
                        if block.is_empty() {
                            block = Class::ALL.to_vec();
                            rng.shuffle(&mut block);
                        }
                        let class = block.pop().expect("refilled above");
                        let spec = pool.draw(class, &mut rng);
                        attempted += 1;
                        let t = Instant::now();
                        let res = run_job(&client, spec);
                        let ms = ms_since(t);
                        match res {
                            Err(e) => errors.push(format!("{}: {e}", key(spec))),
                            Ok((tables, from_store)) => {
                                if from_store != (class == Class::Hit) {
                                    errors.push(format!(
                                        "{}: class {} but from_store={from_store}",
                                        key(spec),
                                        class.label()
                                    ));
                                }
                                let got = digest_tables(&tables);
                                match goldens.get(&key(spec)) {
                                    Some(&want) if want == got => {
                                        samples.push(Sample { class, ms })
                                    }
                                    Some(&want) => errors.push(format!(
                                        "{}: tables digest {got:016x}, golden {want:016x}",
                                        key(spec)
                                    )),
                                    None => errors.push(format!("{}: no golden", key(spec))),
                                }
                            }
                        }
                        if class != Class::Hit {
                            let _ = fs::remove_file(results.path_for(spec.fingerprint()));
                        }
                    }
                    (samples, errors, attempted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for (s, errors, attempted) in per_client {
        out.attempted += attempted;
        for e in errors {
            out.fail(e);
        }
        samples.extend(s);
    }
    Ok(samples)
}

fn class_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.ms)
        .collect()
}

/// Per-class latency metrics and shares.
fn class_metrics(samples: &[Sample], out: &mut Outcome, as_metrics: bool) {
    for class in Class::ALL {
        let ms = class_ms(samples, class);
        let share = ms.len() as f64 / samples.len().max(1) as f64;
        let (p50, p95) = (median(&ms), quantile(&ms, 0.95));
        out.notes.push(format!(
            "{:<8} n={:<5} share={share:.3} p50={p50:.3} ms p95={p95:.3} ms",
            class.label(),
            ms.len()
        ));
        if as_metrics {
            let l = class.label();
            out.metric(format!("mix.{l}_p50_ms"), p50, "ms");
            out.metric(format!("mix.{l}_p95_ms"), p95, "ms");
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let goldens = read_goldens(GOLDENS)?;
    let scratch = Scratch::new("serve-warm-mix")?;
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut digests = Vec::new();
    let mut daemon = None;
    let mut store = PathBuf::new();
    for rep in 0..SETUP_REPS {
        let dir = scratch.path().join(format!("store-{rep}"));
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (d, s, w) = set_up(&dir)?;
        setup_s.push(s);
        warm_s.push(w);
        digests.push(tree_digest(&dir)?);
        if rep + 1 < SETUP_REPS {
            drop(d);
            let _ = fs::remove_dir_all(&dir);
        } else {
            daemon = Some(d);
            store = dir;
        }
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!("warmed stores differ: {digests:016x?}"));
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    out.notes.push(format!(
        "warmed store digest {:016x}, warm {:.3} s (median of {SETUP_REPS})",
        digests[0],
        median(&warm_s)
    ));

    if trace {
        let mut out = traced(&daemon, &store, seed, seconds, &goldens, out)?;
        out.metric("mix.warm_s", median(&warm_s), "s");
        layers::zero_fill(&mut out);
        return Ok(out);
    }

    let started = Instant::now();
    let samples = drive(&daemon, &store, seed, seconds, &goldens, &mut out)?;
    let elapsed = started.elapsed().as_secs_f64();
    drop(daemon);
    class_metrics(&samples, &mut out, false);
    out.notes.push(format!(
        "jobs: {} in {elapsed:.2} s, {CLIENTS} closed-loop clients, daemon --jobs {DAEMON_JOBS}, poll {} ms",
        samples.len(),
        POLL.as_millis()
    ));
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("op_p50_ms", median(&all), "ms");
    out.metric("ops_per_s", samples.len() as f64 / elapsed, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(out)
}

/// The traced run: half the time untraced (overhead reference), half with
/// spans on, then the benchmark's own timers on the warmed store.
fn traced(
    daemon: &Daemon,
    store: &Path,
    seed: u64,
    seconds: f64,
    goldens: &BTreeMap<String, u64>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    // Alternate short untraced and traced windows, so drift over the run
    // does not masquerade as tracing overhead.
    let mut reference = Vec::new();
    let mut samples = Vec::new();
    let mut spans = layers::SpanTotals::default();
    for round in 0..TRACE_ROUNDS {
        let window = seconds / (2 * TRACE_ROUNDS) as f64;
        let seed = seed.wrapping_add(2 * round as u64);
        reference.extend(drive(daemon, store, seed, window, goldens, &mut out)?);
        layers::start_spans();
        samples.extend(drive(daemon, store, seed + 1, window, goldens, &mut out)?);
        match layers::finish_spans() {
            Ok(t) => spans.add(&t),
            Err(e) => out.fail(e),
        }
    }
    let busy_s: f64 = samples.iter().map(|s| s.ms / 1e3).sum();
    let n = samples.len().max(1) as f64;
    let layer_s = [
        ("sim.record_s", spans.get("record_stream")),
        ("core.annotate_s", spans.get("compute_annotations")),
        ("core.replay_s", spans.get("replay")),
        ("core.shard_merge_s", spans.get("merge shards")),
        ("serve.job_self_s", spans.get("job")),
    ];
    let attributed: f64 = layer_s.iter().map(|(_, v)| v).sum();
    for (name, v) in layer_s {
        out.metric(name, v / n, "s");
    }
    out.metric("attributed_frac", attributed / busy_s.max(1e-9), "ratio");
    let ref_ms: Vec<f64> = reference.iter().map(|s| s.ms).collect();
    let traced_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.metric(
        "trace_overhead_frac",
        median(&traced_ms) / median(&ref_ms) - 1.0,
        "ratio",
    );
    class_metrics(&samples, &mut out, true);

    let client = daemon.client();
    let stats = client.stats().map_err(|e| e.to_string())?;
    let dag = |k: &str| {
        stats
            .field("dag")
            .and_then(|d| d.field(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (dag("replay_hits"), dag("replay_misses"));
    out.metric(
        "dag.replay_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    crate::serve_probes::probe(&client, store, &warm_specs(), &mut out)?;
    Ok(out)
}
