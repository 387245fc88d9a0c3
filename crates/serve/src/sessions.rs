//! Live streaming characterization sessions.
//!
//! A session is a durable, incrementally-updated
//! [`OnlineCharacterizer`]: clients
//! `POST /sessions` to open one, push access batches to
//! `POST /sessions/{id}/batch`, and read the sliding-window sharing
//! taxonomy and predictor accuracy back from every batch response or
//! `GET /sessions/{id}/stats` — no trace file, no replay, the
//! characterization advances as the accesses arrive.
//!
//! Sessions ride the daemon's existing resilience machinery:
//!
//! * **Admission control** — open sessions are capped
//!   (`ServerConfig::max_sessions`, HTTP 429 past it), each session's
//!   cumulative accepted payload is capped
//!   (`ServerConfig::session_bytes`, HTTP 429), and a draining daemon
//!   refuses new work with HTTP 503, all counted under
//!   `llc_session_rejected_total`.
//! * **Idle reaping** — a session untouched for
//!   `ServerConfig::session_idle` is closed by the background sweep,
//!   like store GC bounds disk.
//! * **Drain/restore** — a graceful drain checkpoints every live session
//!   to `<store>/sessions/<id>.json` (the session analogue of
//!   `queued-jobs.json`); the next start restores them with their
//!   sliding-window state bit-identical, so a rolling restart does not
//!   reset a client's characterization. `repro gc --verify` walks the
//!   same files and quarantines corrupt ones.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use llc_sharing::json::{self, Value};
use llc_sharing::OnlineCharacterizer;
use llc_sim::{AccessKind, Addr, CoreId, Pc, MAX_CORES};
use llc_telemetry::metrics::{global, Counter, Gauge};
use llc_trace::atomic_write;

use crate::http::Response;

/// Subdirectory of the store root holding session checkpoints.
pub const SESSIONS_DIR: &str = "sessions";

/// File extension of a session checkpoint.
pub const SESSION_FILE_EXT: &str = "json";

/// Hard ceiling on a session's sliding window: bounds both the live
/// memory per session and the checkpoint size (one ring entry plus at
/// most one pending prediction per in-window access).
pub const MAX_SESSION_WINDOW: u64 = 1 << 16;

/// Default window when the create request names none.
pub const DEFAULT_SESSION_WINDOW: u64 = 4096;

struct SessionMetrics {
    open: Arc<Gauge>,
    created: Arc<Counter>,
    restored: Arc<Counter>,
    checkpointed: Arc<Counter>,
    batches: Arc<Counter>,
    accesses: Arc<Counter>,
    bytes: Arc<Counter>,
}

static METRICS: LazyLock<SessionMetrics> = LazyLock::new(|| SessionMetrics {
    open: global().gauge("llc_sessions_open", "Streaming sessions currently open"),
    created: global().counter(
        "llc_sessions_created_total",
        "Streaming sessions opened by POST /sessions",
    ),
    restored: global().counter(
        "llc_session_restored_total",
        "Sessions restored from drain checkpoints at daemon start",
    ),
    checkpointed: global().counter(
        "llc_session_checkpoints_total",
        "Session checkpoints written by graceful drains",
    ),
    batches: global().counter(
        "llc_session_batches_total",
        "Access batches accepted into streaming sessions",
    ),
    accesses: global().counter(
        "llc_session_accesses_total",
        "Accesses pushed through streaming sessions",
    ),
    bytes: global().counter(
        "llc_session_bytes_total",
        "Payload bytes accepted into streaming sessions",
    ),
});

/// `llc_sessions_closed_total{reason=...}` for one close reason.
fn closed(reason: &'static str) -> Arc<Counter> {
    global().counter_with(
        "llc_sessions_closed_total",
        "Streaming sessions closed, by reason",
        &[("reason", reason)],
    )
}

/// `llc_session_rejected_total{reason=...}` for one rejection reason.
fn rejected(reason: &'static str) -> Arc<Counter> {
    global().counter_with(
        "llc_session_rejected_total",
        "Session opens and batches refused by admission control",
        &[("reason", reason)],
    )
}

/// Registers every session metric series (all-zero until the first
/// event) so scrapes see the full set from daemon start-up.
pub(crate) fn register_metrics() {
    LazyLock::force(&METRICS);
    for reason in ["sessions", "session_bytes", "shutdown"] {
        rejected(reason);
    }
    for reason in ["deleted", "idle"] {
        closed(reason);
    }
}

/// Publishes one session's per-session gauge series
/// (`llc_session_accesses{session="<id>"}` and the predictor-accuracy
/// companion). Series cardinality is bounded by session admission: at
/// most `max_sessions` live series, and a closed session's series stays
/// at its final value until the process exits.
fn publish(id: u64, s: &Session) {
    let stats = s.characterizer.stats();
    let label = id.to_string();
    global()
        .gauge_with(
            "llc_session_accesses",
            "Accesses characterized so far, per live session",
            &[("session", &label)],
        )
        .set(stats.tally.accesses as i64);
    global()
        .gauge_with(
            "llc_session_shared_reuse_permille",
            "Per-session sliding-window shared-reuse fraction, in permille",
            &[("session", &label)],
        )
        .set((stats.shared_reuse_fraction() * 1000.0).round() as i64);
    global()
        .gauge_with(
            "llc_session_predictor_accuracy_permille",
            "Per-session resolved shared-soon predictor accuracy, in permille",
            &[("session", &label)],
        )
        .set((stats.accuracy() * 1000.0).round() as i64);
}

/// One live session.
#[derive(Debug)]
struct Session {
    cores: usize,
    characterizer: OnlineCharacterizer,
    batches: u64,
    bytes: u64,
    restored: bool,
    last_touch: Instant,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Session>,
    next_id: u64,
}

/// The daemon's session registry: live sessions behind one lock, plus
/// the checkpoint directory and the admission caps.
#[derive(Debug)]
pub struct SessionTable {
    inner: Mutex<Inner>,
    dir: PathBuf,
    max_sessions: usize,
    max_bytes: u64,
    idle: Duration,
}

fn lock(table: &SessionTable) -> MutexGuard<'_, Inner> {
    table.inner.lock().unwrap_or_else(|p| p.into_inner())
}

/// Parses one access row — `[core, pc, addr, kind]` with `pc`/`addr` as
/// JSON numbers or hex strings (addresses above 2^53 do not survive JSON
/// numbers exactly) and `kind` as `"R"`/`"W"`/`0`/`1`.
fn parse_access(v: &Value, cores: usize) -> Result<(CoreId, Pc, Addr, AccessKind), String> {
    let row = v.as_array().ok_or("each access must be an array")?;
    let [core, pc, addr, kind] = row else {
        return Err("each access must be [core, pc, addr, kind]".into());
    };
    let core = core
        .as_u64()
        .filter(|&c| c < cores as u64)
        .ok_or_else(|| format!("core must be an integer below {cores}"))?;
    let word = |v: &Value, what: &str| -> Result<u64, String> {
        if let Some(n) = v.as_u64() {
            return Ok(n);
        }
        let s = v
            .as_str()
            .ok_or_else(|| format!("{what} must be an integer or a hex string"))?;
        u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("{what} {s:?} is not hex: {e}"))
    };
    let kind = match kind {
        Value::Str(s) if s.eq_ignore_ascii_case("r") => AccessKind::Read,
        Value::Str(s) if s.eq_ignore_ascii_case("w") => AccessKind::Write,
        Value::Num(n) if *n == 0.0 => AccessKind::Read,
        Value::Num(n) if *n == 1.0 => AccessKind::Write,
        _ => return Err("kind must be \"R\", \"W\", 0 or 1".into()),
    };
    Ok((
        CoreId::new(core as usize),
        Pc::new(word(pc, "pc")?),
        Addr::new(word(addr, "addr")?),
        kind,
    ))
}

/// A session's wire-form stats document.
fn session_json(id: u64, s: &Session) -> Value {
    let stats = s.characterizer.stats();
    let t = stats.tally;
    let num = |n: u64| Value::Num(n as f64);
    Value::object(vec![
        ("id", num(id)),
        ("cores", num(s.cores as u64)),
        ("window", num(stats.window)),
        ("batches", num(s.batches)),
        ("bytes", num(s.bytes)),
        ("restored", Value::Bool(s.restored)),
        ("accesses", num(t.accesses)),
        ("reads", num(t.reads)),
        ("writes", num(t.writes)),
        ("reuses", num(t.reuses)),
        ("shared_reuses", num(t.shared_reuses)),
        ("private", num(t.private_accesses)),
        ("ro_shared", num(t.ro_shared_accesses)),
        ("rw_shared", num(t.rw_shared_accesses)),
        (
            "shared_reuse_fraction",
            Value::Num(stats.shared_reuse_fraction()),
        ),
        (
            "predictor",
            Value::object(vec![
                ("resolved", num(t.predictions_resolved)),
                ("correct", num(t.predictions_correct)),
                ("resolved_shared", num(t.resolved_shared)),
                ("pending", num(stats.predictions_pending)),
                ("accuracy", Value::Num(stats.accuracy())),
            ]),
        ),
        ("blocks_in_window", num(stats.blocks_in_window)),
    ])
}

impl SessionTable {
    /// Opens the table over `<store>/sessions/` with the given caps.
    pub fn new(store_dir: &Path, max_sessions: usize, max_bytes: u64, idle: Duration) -> Self {
        SessionTable {
            inner: Mutex::new(Inner::default()),
            dir: store_dir.join(SESSIONS_DIR),
            max_sessions: max_sessions.max(1),
            max_bytes,
            idle,
        }
    }

    /// Open sessions right now.
    pub fn open_count(&self) -> usize {
        lock(self).map.len()
    }

    /// The open-session admission cap.
    pub fn cap(&self) -> usize {
        self.max_sessions
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.{SESSION_FILE_EXT}"))
    }

    /// `POST /sessions`: `{"cores": N, "window": W}` (both optional;
    /// cores defaults to 1, window to [`DEFAULT_SESSION_WINDOW`]).
    pub fn create(&self, body: &str, draining: bool) -> Response {
        if draining {
            rejected("shutdown").inc();
            return Response::error(503, "daemon is draining").retry_after(5);
        }
        let doc = if body.trim().is_empty() {
            Value::object(vec![])
        } else {
            match json::parse(body) {
                Ok(doc) => doc,
                Err(e) => return Response::error(400, &format!("bad session spec: {e}")),
            }
        };
        let cores = doc.field("cores").and_then(Value::as_u64).unwrap_or(1);
        if cores == 0 || cores > MAX_CORES as u64 {
            return Response::error(400, &format!("cores must be in 1..={MAX_CORES}"));
        }
        let window = doc
            .field("window")
            .and_then(Value::as_u64)
            .unwrap_or(DEFAULT_SESSION_WINDOW)
            .clamp(1, MAX_SESSION_WINDOW);
        let mut inner = lock(self);
        if inner.map.len() >= self.max_sessions {
            rejected("sessions").inc();
            return Response::error(429, &format!("{} sessions already open", self.max_sessions))
                .retry_after(5);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let session = Session {
            cores: cores as usize,
            characterizer: OnlineCharacterizer::new(window),
            batches: 0,
            bytes: 0,
            restored: false,
            last_touch: Instant::now(),
        };
        METRICS.created.inc();
        METRICS.open.set(inner.map.len() as i64 + 1);
        publish(id, &session);
        let doc = session_json(id, &session);
        inner.map.insert(id, session);
        Response::json(201, doc.render())
    }

    /// `POST /sessions/{id}/batch`:
    /// `{"accesses": [[core, pc, addr, kind], ...]}`. Answers the
    /// post-batch stats snapshot, so a streaming client needs no separate
    /// stats poll.
    pub fn batch(&self, id: &str, body: &str, draining: bool) -> Response {
        if draining {
            rejected("shutdown").inc();
            return Response::error(503, "daemon is draining").retry_after(5);
        }
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(404, &format!("no such session {id:?}"));
        };
        let doc = match json::parse(body) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &format!("bad batch: {e}")),
        };
        let Some(rows) = doc.field("accesses").and_then(Value::as_array) else {
            return Response::error(400, "batch must carry an \"accesses\" array");
        };
        let mut inner = lock(self);
        let Some(session) = inner.map.get_mut(&id) else {
            return Response::error(404, &format!("no such session {id}"));
        };
        // The byte cap counts accepted payload: a rejected batch must not
        // consume budget, so check before parsing mutates anything.
        let body_bytes = body.len() as u64;
        if session.bytes.saturating_add(body_bytes) > self.max_bytes {
            rejected("session_bytes").inc();
            return Response::error(
                429,
                &format!("session byte cap of {} reached", self.max_bytes),
            )
            .retry_after(5);
        }
        // Parse fully before pushing: a malformed row rejects the whole
        // batch atomically instead of leaving half of it characterized.
        let mut parsed = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            match parse_access(row, session.cores) {
                Ok(a) => parsed.push(a),
                Err(e) => return Response::error(400, &format!("access {i}: {e}")),
            }
        }
        for (core, _pc, addr, kind) in &parsed {
            session.characterizer.push(*core, addr.block(), *kind);
        }
        session.batches += 1;
        session.bytes += body_bytes;
        session.last_touch = Instant::now();
        METRICS.batches.inc();
        METRICS.accesses.add(parsed.len() as u64);
        METRICS.bytes.add(body_bytes);
        publish(id, session);
        Response::json(200, session_json(id, session).render())
    }

    /// `GET /sessions/{id}/stats` (also `GET /sessions/{id}`).
    pub fn stats(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(404, &format!("no such session {id:?}"));
        };
        let inner = lock(self);
        match inner.map.get(&id) {
            Some(s) => Response::json(200, session_json(id, s).render()),
            None => Response::error(404, &format!("no such session {id}")),
        }
    }

    /// `GET /sessions`.
    pub fn list(&self) -> Response {
        let inner = lock(self);
        let mut ids: Vec<&u64> = inner.map.keys().collect();
        ids.sort_unstable();
        let doc = Value::object(vec![
            (
                "sessions",
                Value::Array(
                    ids.iter()
                        .map(|&&id| session_json(id, &inner.map[&id]))
                        .collect(),
                ),
            ),
            ("open", Value::Num(inner.map.len() as f64)),
            ("cap", Value::Num(self.max_sessions as f64)),
        ]);
        Response::json(200, doc.render())
    }

    /// `DELETE /sessions/{id}`: closes the session and removes its
    /// checkpoint — deletion is the one way a session's durable state
    /// goes away on purpose.
    pub fn delete(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(404, &format!("no such session {id:?}"));
        };
        let mut inner = lock(self);
        let Some(session) = inner.map.remove(&id) else {
            return Response::error(404, &format!("no such session {id}"));
        };
        METRICS.open.set(inner.map.len() as i64);
        closed("deleted").inc();
        drop(inner);
        let _ = fs::remove_file(self.checkpoint_path(id));
        Response::json(200, session_json(id, &session).render())
    }

    /// Closes sessions idle past the cap (called from the background
    /// sweep). Their checkpoints go too: an expired session is closed,
    /// not parked.
    pub fn reap_idle(&self) {
        let mut reaped = Vec::new();
        let mut inner = lock(self);
        inner.map.retain(|&id, s| {
            if s.last_touch.elapsed() < self.idle {
                return true;
            }
            reaped.push(id);
            false
        });
        METRICS.open.set(inner.map.len() as i64);
        drop(inner);
        for id in reaped {
            closed("idle").inc();
            let _ = fs::remove_file(self.checkpoint_path(id));
        }
    }

    /// Checkpoints every live session to `<store>/sessions/<id>.json`
    /// (atomic writes; called by the graceful drain). A failed write
    /// costs that session its restart survival, never the drain.
    pub fn checkpoint_all(&self) {
        let inner = lock(self);
        if inner.map.is_empty() {
            return;
        }
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        for (&id, session) in &inner.map {
            let doc = Value::object(vec![
                ("version", Value::Num(1.0)),
                ("id", Value::Num(id as f64)),
                ("cores", Value::Num(session.cores as f64)),
                ("batches", Value::Num(session.batches as f64)),
                ("bytes", Value::Num(session.bytes as f64)),
                ("characterizer", session.characterizer.to_json()),
            ]);
            if atomic_write(&self.checkpoint_path(id), doc.render().as_bytes()).is_ok() {
                METRICS.checkpointed.inc();
            }
        }
    }

    /// Restores drain-checkpointed sessions at daemon start. Unparsable
    /// checkpoints are skipped (and left for `gc --verify` to
    /// quarantine); restored files stay on disk so a crash between
    /// restore and the next drain still has *a* checkpoint, merely a
    /// stale one.
    pub fn restore(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut inner = lock(self);
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != SESSION_FILE_EXT) {
                continue;
            }
            let Some(session) = fs::read_to_string(&path)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .and_then(|doc| restore_one(&doc))
            else {
                continue;
            };
            let (id, session) = session;
            if inner.map.len() >= self.max_sessions || inner.map.contains_key(&id) {
                continue;
            }
            inner.next_id = inner.next_id.max(id + 1);
            METRICS.restored.inc();
            publish(id, &session);
            inner.map.insert(id, session);
        }
        METRICS.open.set(inner.map.len() as i64);
    }
}

/// `true` when `text` is a checkpoint that would restore into a live
/// session — the validity predicate `repro gc --verify` applies to
/// `<store>/sessions/*.json`.
pub(crate) fn checkpoint_is_valid(text: &str) -> bool {
    json::parse(text)
        .ok()
        .and_then(|doc| restore_one(&doc))
        .is_some()
}

/// Decodes one checkpoint document into a restored session.
fn restore_one(doc: &Value) -> Option<(u64, Session)> {
    if doc.field("version").and_then(Value::as_u64) != Some(1) {
        return None;
    }
    let id = doc.field("id").and_then(Value::as_u64)?;
    let cores = doc
        .field("cores")
        .and_then(Value::as_u64)
        .filter(|&c| c >= 1 && c <= MAX_CORES as u64)?;
    let characterizer = OnlineCharacterizer::from_json(doc.field("characterizer")?).ok()?;
    Some((
        id,
        Session {
            cores: cores as usize,
            characterizer,
            batches: doc.field("batches").and_then(Value::as_u64).unwrap_or(0),
            bytes: doc.field("bytes").and_then(Value::as_u64).unwrap_or(0),
            restored: true,
            last_touch: Instant::now(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llcs-sessions-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn table(dir: &Path) -> SessionTable {
        SessionTable::new(dir, 4, 10_000, Duration::from_secs(600))
    }

    fn created_id(resp: &Response) -> String {
        let doc = json::parse(&resp.body).expect("json");
        format!("{}", doc.field("id").and_then(Value::as_u64).expect("id"))
    }

    #[test]
    fn create_batch_stats_delete_round_trip() {
        let dir = temp_store("crud");
        let t = table(&dir);
        let resp = t.create("{\"cores\":2,\"window\":64}", false);
        assert_eq!(resp.status, 201, "{}", resp.body);
        let id = created_id(&resp);
        let resp = t.batch(
            &id,
            "{\"accesses\":[[0,\"400\",\"7f00\",\"R\"],[1,\"404\",\"7f00\",\"W\"],[0,1028,32520,1]]}",
            false,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).expect("json");
        assert_eq!(doc.field("accesses").and_then(Value::as_u64), Some(3));
        assert_eq!(
            doc.field("rw_shared").and_then(Value::as_u64),
            Some(2),
            "core 1's write and core 0's follow-up share block 0x7f00>>6: {}",
            resp.body
        );
        let stats = t.stats(&id);
        assert_eq!(stats.status, 200);
        assert_eq!(stats.body, resp.body, "batch answers the same snapshot");
        assert_eq!(t.delete(&id).status, 200);
        assert_eq!(t.stats(&id).status, 404);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_caps_sessions_bytes_and_drain() {
        let dir = temp_store("caps");
        let t = SessionTable::new(&dir, 2, 60, Duration::from_secs(600));
        assert_eq!(t.create("", false).status, 201);
        assert_eq!(t.create("", false).status, 201);
        assert_eq!(t.create("", false).status, 429, "session cap");
        assert_eq!(t.create("", true).status, 503, "draining");
        let big = format!(
            "{{\"accesses\":[{}]}}",
            vec!["[0,1,64,\"R\"]"; 20].join(",")
        );
        assert!(big.len() > 60);
        let resp = t.batch("0", &big, false);
        assert_eq!(resp.status, 429, "byte cap: {}", resp.body);
        let small = "{\"accesses\":[[0,1,64,\"R\"]]}";
        assert_eq!(t.batch("0", small, false).status, 200);
        assert_eq!(t.batch("0", small, true).status, 503, "draining batch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_batches_reject_atomically() {
        let dir = temp_store("badbatch");
        let t = table(&dir);
        let id = created_id(&t.create("{\"cores\":2}", false));
        for (body, status) in [
            ("not json", 400),
            ("{\"rows\":[]}", 400),
            ("{\"accesses\":[[0,1,64,\"R\"],[9,1,64,\"R\"]]}", 400), // core ≥ cores
            ("{\"accesses\":[[0,1,64,\"Q\"]]}", 400),
            ("{\"accesses\":[[0,\"zz\",64,\"R\"]]}", 400),
            ("{\"accesses\":[[0,1,64]]}", 400),
        ] {
            assert_eq!(t.batch(&id, body, false).status, status, "{body}");
        }
        let doc = json::parse(&t.stats(&id).body).expect("json");
        assert_eq!(
            doc.field("accesses").and_then(Value::as_u64),
            Some(0),
            "no partial batch leaked into the characterizer"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_restore_preserves_window_state() {
        let dir = temp_store("restore");
        let t = table(&dir);
        let id = created_id(&t.create("{\"cores\":2,\"window\":32}", false));
        let body =
            "{\"accesses\":[[0,1,\"1000\",\"R\"],[1,2,\"1000\",\"W\"],[0,3,\"2000\",\"R\"]]}";
        let before = t.batch(&id, body, false);
        assert_eq!(before.status, 200);
        t.checkpoint_all();

        // A fresh table over the same store (a restarted daemon).
        let t2 = table(&dir);
        t2.restore();
        let after = t2.stats(&id);
        assert_eq!(after.status, 200, "{}", after.body);
        let before = json::parse(&before.body).expect("json");
        let after = json::parse(&after.body).expect("json");
        assert_eq!(after.field("restored"), Some(&Value::Bool(true)));
        for f in [
            "accesses",
            "rw_shared",
            "shared_reuses",
            "blocks_in_window",
            "batches",
            "bytes",
        ] {
            assert_eq!(
                after.field(f).and_then(Value::as_u64),
                before.field(f).and_then(Value::as_u64),
                "{f} must survive the restart"
            );
        }
        // The restored window keeps resolving predictions: a different
        // core touching block 0x2000>>6 counts as a shared reuse only if
        // the pre-restart touch is still in the window.
        let resp = t2.batch(&id, "{\"accesses\":[[1,4,\"2000\",\"R\"]]}", false);
        let doc = json::parse(&resp.body).expect("json");
        assert_eq!(
            doc.field("shared_reuses").and_then(Value::as_u64),
            Some(2),
            "window state crossed the restart: {}",
            resp.body
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_skipped_and_ids_never_reused() {
        let dir = temp_store("corrupt");
        let t = table(&dir);
        let id = created_id(&t.create("", false));
        t.checkpoint_all();
        fs::write(dir.join(SESSIONS_DIR).join("junk.json"), "{ not json").expect("write");
        let t2 = table(&dir);
        t2.restore();
        assert_eq!(t2.open_count(), 1, "only the valid checkpoint restores");
        let next = created_id(&t2.create("", false));
        assert_ne!(next, id, "restored ids are reserved");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_sessions_are_reaped() {
        let dir = temp_store("idle");
        let t = SessionTable::new(&dir, 4, 10_000, Duration::from_millis(1));
        t.create("", false);
        std::thread::sleep(Duration::from_millis(10));
        t.reap_idle();
        assert_eq!(t.open_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
