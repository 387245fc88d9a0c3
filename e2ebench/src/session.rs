//! `session-stream`: live streaming characterization sessions.
//!
//! Set-up synthesizes bodytrack (shared) and swaptions (private) at
//! 8 threads, small scale (1.2 M accesses each), pre-encodes them as
//! 4096-access `POST /sessions/{id}/batch` bodies, starts a daemon over an
//! empty store and opens one `{"cores": 8}` session per app. It runs three
//! times; `setup_s` is the median and the last one serves the run.
//!
//! Two closed-loop clients, one per session, then push batches. The seed
//! picks the batch each client starts from; a client that has pushed
//! every batch of its app moves on to a fresh session. After the run,
//! every session's final `/sessions/{id}/stats` must equal an in-process
//! `OnlineCharacterizer` fed the same accesses, and the full-stream
//! characterization of each app must match
//! `goldens/session-stream.digests`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use llc_serve::Client;
use llc_sharing::json::{self, Value};
use llc_sharing::OnlineCharacterizer;
use llc_sim::MemAccess;
use llc_trace::{App, Scale, TraceSource};

use crate::layers;
use crate::serve_mix::Daemon;
use crate::util::{
    fnv1a64, median, ms_since, peak_rss_mib, quantile, read_goldens, write_goldens, Outcome, Rng,
    Scratch,
};

const GOLDENS: &str = "session-stream.digests";
const SETUP_REPS: usize = 3;
const APPS: [App; 2] = [App::Bodytrack, App::Swaptions];
const CORES: usize = 8;
const BATCH: usize = 4096;
/// Untraced/traced window pairs in a traced run.
const TRACE_ROUNDS: usize = 4;
/// The daemon's default session window, mirrored for the in-process
/// reference.
const WINDOW: u64 = llc_serve::sessions::DEFAULT_SESSION_WINDOW;

/// One app's pre-encoded input.
struct Feed {
    app: App,
    accesses: Vec<MemAccess>,
    bodies: Vec<String>,
}

fn encode(batch: &[MemAccess]) -> String {
    let mut s = String::with_capacity(batch.len() * 40 + 16);
    s.push_str("{\"accesses\":[");
    for (i, a) in batch.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = u8::from(a.kind.is_write());
        s.push_str(&format!(
            "[{},\"{:x}\",\"{:x}\",{kind}]",
            a.core.index(),
            a.pc.raw(),
            a.addr.raw()
        ));
    }
    s.push_str("]}");
    s
}

fn synthesize(app: App) -> Feed {
    let mut w = app.workload(CORES, Scale::Small);
    let mut accesses = Vec::new();
    while let Some(a) = w.next_access() {
        accesses.push(a);
    }
    let bodies = accesses.chunks(BATCH).map(encode).collect();
    Feed {
        app,
        accesses,
        bodies,
    }
}

/// The reference characterization of `feed`'s batches `from..from+count`
/// (indices wrap around).
fn reference(feed: &Feed, from: usize, count: usize) -> OnlineCharacterizer {
    let mut c = OnlineCharacterizer::new(WINDOW);
    let n = feed.bodies.len();
    for k in 0..count {
        let b = (from + k) % n;
        let end = ((b + 1) * BATCH).min(feed.accesses.len());
        for a in &feed.accesses[b * BATCH..end] {
            c.push_access(a);
        }
    }
    c
}

/// The session stats fields that must match the reference exactly.
fn expected_fields(c: &OnlineCharacterizer) -> Vec<(&'static str, u64)> {
    let s = c.stats();
    let t = s.tally;
    vec![
        ("accesses", t.accesses),
        ("reads", t.reads),
        ("writes", t.writes),
        ("reuses", t.reuses),
        ("shared_reuses", t.shared_reuses),
        ("private", t.private_accesses),
        ("ro_shared", t.ro_shared_accesses),
        ("rw_shared", t.rw_shared_accesses),
        ("blocks_in_window", s.blocks_in_window),
    ]
}

fn stats_digest(c: &OnlineCharacterizer) -> u64 {
    let s = c.stats();
    fnv1a64(format!("{:?}", (s.tally, s.blocks_in_window, s.predictions_pending)).as_bytes())
}

fn check_stats(doc: &Value, want: &OnlineCharacterizer) -> Result<(), String> {
    for (field, v) in expected_fields(want) {
        let got = doc.field(field).and_then(Value::as_u64);
        if got != Some(v) {
            return Err(format!(
                "session {field} = {got:?}, in-process reference {v}"
            ));
        }
    }
    let predictor = doc
        .field("predictor")
        .ok_or("session stats lack predictor")?;
    let t = want.stats().tally;
    for (field, v) in [
        ("resolved", t.predictions_resolved),
        ("correct", t.predictions_correct),
        ("resolved_shared", t.resolved_shared),
        ("pending", want.stats().predictions_pending),
    ] {
        let got = predictor.field(field).and_then(Value::as_u64);
        if got != Some(v) {
            return Err(format!(
                "session predictor.{field} = {got:?}, reference {v}"
            ));
        }
    }
    Ok(())
}

/// Regenerates the golden digests of each app's full-stream
/// characterization.
pub fn write(command: &str) -> Result<(), String> {
    let mut map = BTreeMap::new();
    for app in APPS {
        let feed = synthesize(app);
        map.insert(
            app.label().to_string(),
            stats_digest(&reference(&feed, 0, feed.bodies.len())),
        );
    }
    write_goldens(GOLDENS, command, &map)
}

fn open_session(client: &Client) -> Result<u64, String> {
    let doc = client
        .request(
            "POST",
            "/sessions",
            Some(&format!("{{\"cores\": {CORES}}}")),
        )
        .map_err(|e| format!("opening session: {e}"))?;
    doc.field("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| "session answer has no id".to_string())
}

/// One session's life: which batches it was fed.
struct Fed {
    feed: usize,
    id: u64,
    from: usize,
    count: usize,
}

/// Per-client results.
struct ClientRun {
    ms: Vec<f64>,
    accesses: u64,
    sessions: Vec<Fed>,
    errors: Vec<String>,
    attempted: u64,
}

fn client_loop(
    client: &Client,
    feed_ix: usize,
    feed: &Feed,
    first: u64,
    start: usize,
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        ms: Vec::new(),
        accesses: 0,
        sessions: Vec::new(),
        errors: Vec::new(),
        attempted: 0,
    };
    let n = feed.bodies.len();
    let mut cur = Fed {
        feed: feed_ix,
        id: first,
        from: start,
        count: 0,
    };
    while run.ms.is_empty() || Instant::now() < deadline {
        if cur.count == n {
            // Every batch pushed: retire this session, open a fresh one.
            let next = match open_session(client) {
                Ok(id) => id,
                Err(e) => {
                    run.errors.push(e);
                    break;
                }
            };
            let done = std::mem::replace(
                &mut cur,
                Fed {
                    feed: feed_ix,
                    id: next,
                    from: start,
                    count: 0,
                },
            );
            run.sessions.push(done);
        }
        let b = (cur.from + cur.count) % n;
        let path = format!("/sessions/{}/batch", cur.id);
        run.attempted += 1;
        let t = Instant::now();
        match client.request_text("POST", &path, Some(&feed.bodies[b])) {
            Ok((200, _)) => {
                run.ms.push(ms_since(t));
                run.accesses += (((b + 1) * BATCH).min(feed.accesses.len()) - b * BATCH) as u64;
                cur.count += 1;
            }
            Ok((status, body)) => {
                run.errors.push(format!("batch {b}: HTTP {status}: {body}"));
                break;
            }
            Err(e) => {
                run.errors.push(format!("batch {b}: {e}"));
                break;
            }
        }
    }
    run.sessions.push(cur);
    run
}

struct Setup {
    feeds: Vec<Feed>,
    daemon: Daemon,
    sessions: Vec<u64>,
}

fn set_up(scratch: &Scratch, rep: usize) -> Result<Setup, String> {
    let feeds = std::thread::scope(|s| {
        let h: Vec<_> = APPS
            .iter()
            .map(|&a| s.spawn(move || synthesize(a)))
            .collect();
        h.into_iter()
            .map(|h| h.join().expect("synthesis thread panicked"))
            .collect::<Vec<_>>()
    });
    let dir = scratch.path().join(format!("store-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::start(&dir)?;
    let client = daemon.client();
    let sessions = feeds
        .iter()
        .map(|_| open_session(&client))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        feeds,
        daemon,
        sessions,
    })
}

/// Pushes batches from both clients for `seconds`, then checks every
/// session against its in-process reference.
fn drive(setup: &mut Setup, seed: u64, seconds: f64, out: &mut Outcome) -> (Vec<f64>, u64, f64) {
    let mut rng = Rng::new(seed);
    let starts: Vec<usize> = setup
        .feeds
        .iter()
        .map(|f| rng.below(f.bodies.len()))
        .collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let h: Vec<_> = setup
            .feeds
            .iter()
            .enumerate()
            .map(|(i, feed)| {
                let client = setup.daemon.client();
                let (first, start) = (setup.sessions[i], starts[i]);
                s.spawn(move || client_loop(&client, i, feed, first, start, deadline))
            })
            .collect();
        h.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let client = setup.daemon.client();
    let mut ms = Vec::new();
    let mut accesses = 0;
    for (i, run) in runs.into_iter().enumerate() {
        out.attempted += run.attempted;
        for e in run.errors {
            out.fail(e);
        }
        ms.extend(run.ms);
        accesses += run.accesses;
        for fed in &run.sessions {
            let feed = &setup.feeds[fed.feed];
            let want = reference(feed, fed.from, fed.count);
            match client.request("GET", &format!("/sessions/{}/stats", fed.id), None) {
                Ok(doc) => {
                    if let Err(e) = check_stats(&doc, &want) {
                        out.fail(format!("{} session {}: {e}", feed.app.label(), fed.id));
                    }
                }
                Err(e) => out.fail(format!("{} session {}: {e}", feed.app.label(), fed.id)),
            }
            if let Err(e) = client.request("DELETE", &format!("/sessions/{}", fed.id), None) {
                out.fail(format!("closing session {}: {e}", fed.id));
            }
        }
        // The next drive starts from its own seeded batch on a fresh
        // session, so every session's reference stays exact.
        match open_session(&client) {
            Ok(id) => setup.sessions[i] = id,
            Err(e) => out.fail(e),
        }
    }
    (ms, accesses, elapsed)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let goldens = read_goldens(GOLDENS)?;
    let scratch = Scratch::new("session-stream")?;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(&scratch, rep)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("SETUP_REPS > 0");

    let mut traced_out = None;
    let (ms, accesses, elapsed) = if trace {
        // Alternate short untraced and traced windows, so drift over the
        // run does not masquerade as tracing overhead.
        let (mut ref_ms, mut ms, mut accesses, mut elapsed) = (Vec::new(), Vec::new(), 0, 0.0);
        for round in 0..TRACE_ROUNDS {
            let window = seconds / (2 * TRACE_ROUNDS) as f64;
            let seed = seed.wrapping_add(2 * round as u64);
            ref_ms.extend(drive(&mut setup, seed, window, &mut out).0);
            layers::start_spans();
            let r = drive(&mut setup, seed + 1, window, &mut out);
            if let Err(e) = layers::finish_spans() {
                out.fail(e);
            }
            ms.extend(r.0);
            accesses += r.1;
            elapsed += r.2;
        }
        traced_out = Some(median(&ms) / median(&ref_ms) - 1.0);
        (ms, accesses, elapsed)
    } else {
        drive(&mut setup, seed, seconds, &mut out)
    };

    // The in-process characterization of each full stream must match
    // its golden.
    for feed in &setup.feeds {
        let got = stats_digest(&reference(feed, 0, feed.bodies.len()));
        match goldens.get(feed.app.label()) {
            Some(&want) if want == got => {}
            Some(&want) => out.fail(format!(
                "{}: characterization digest {got:016x}, golden {want:016x}",
                feed.app.label()
            )),
            None => out.fail(format!("{}: no golden", feed.app.label())),
        }
    }
    out.notes.push(format!(
        "batches: {} ({} accesses) in {elapsed:.2} s, {} clients, {BATCH} accesses per batch, p95 {:.3} ms",
        ms.len(),
        accesses,
        setup.feeds.len(),
        quantile(&ms, 0.95)
    ));

    if let Some(overhead) = traced_out {
        let probe = push_probe(&setup.feeds[0]);
        out.metric("serve.batch_parse_ms", probe.0, "ms");
        out.metric("core.online_push_ns", probe.1, "ns");
        out.metric("session.batch_p95_ms", quantile(&ms, 0.95), "ms");
        out.metric("session.accesses_per_s", accesses as f64 / elapsed, "1/s");
        out.metric("trace_overhead_frac", overhead, "ratio");
        layers::zero_fill(&mut out);
        return Ok(out);
    }
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("op_p50_ms", median(&ms), "ms");
    out.metric("ops_per_s", ms.len() as f64 / elapsed, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(out)
}

/// Median `json::parse` time of one batch body, and in-process
/// `OnlineCharacterizer::push` time per access over the whole feed.
fn push_probe(feed: &Feed) -> (f64, f64) {
    let mut parse_ms = Vec::new();
    for body in feed.bodies.iter().take(64) {
        let t = Instant::now();
        std::hint::black_box(json::parse(body).ok());
        parse_ms.push(ms_since(t));
    }
    let t = Instant::now();
    let c = reference(feed, 0, feed.bodies.len());
    let push_ns = t.elapsed().as_secs_f64() * 1e9 / feed.accesses.len().max(1) as f64;
    std::hint::black_box(c);
    (median(&parse_ms), push_ns)
}
