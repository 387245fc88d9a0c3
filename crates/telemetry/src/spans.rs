//! Scoped RAII span tracing with Chrome-trace JSON export.
//!
//! A span measures one region of code: [`span`] captures a start time,
//! the returned [`SpanGuard`] records `(name, start, duration)` into
//! the calling thread's ring buffer when dropped. Buffers are
//! per-thread, so recording never contends across threads; the only
//! global synchronization is buffer registration (once per thread) and
//! export.
//!
//! Tracing is **off by default**. A span taken while tracing is
//! disabled costs a single relaxed atomic load and records nothing, so
//! instrumentation can stay in hot code permanently — the streams and
//! kernel bench gates run with this layer compiled in.
//!
//! Threads that exit before export (the suite's guarded experiment
//! threads, the daemon's per-job watchdogs) *retire* their buffer into
//! a bounded global list instead of losing it, so a batch run can
//! export the full timeline at the end. The retired list is capped
//! (oldest buffers drop first, counted in [`dropped_events`]) so a
//! long-lived daemon that briefly enabled tracing cannot grow without
//! bound.
//!
//! [`chrome_trace_json`] renders everything recorded so far in the
//! Chrome trace-event format (an object with a `traceEvents` array of
//! `ph:"X"` complete events plus `ph:"M"` thread-name metadata), which
//! loads directly in `chrome://tracing` or <https://ui.perfetto.dev>.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RING_CAP: AtomicUsize = AtomicUsize::new(1 << 16);
/// Events dropped because a ring wrapped or a retired buffer was
/// evicted from the bounded retired list.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Retired buffers kept for export after their thread exited.
const RETIRED_CAP: usize = 1024;

/// All timestamps are relative to this process-wide epoch; it is
/// forced before any span's start time is taken, so `ts` never
/// underflows.
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

static LIVE: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
static RETIRED: Mutex<VecDeque<ThreadBuf>> = Mutex::new(VecDeque::new());

#[derive(Debug, Clone)]
struct Event {
    name: Cow<'static, str>,
    ts_us: u64,
    dur_us: u64,
}

#[derive(Debug, Default)]
struct ThreadBuf {
    tid: u64,
    thread_name: String,
    ring: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    cap: usize,
}

impl ThreadBuf {
    fn push(&mut self, e: Event) {
        if self.ring.len() < self.cap {
            self.ring.push(e);
        } else if self.cap > 0 {
            // Overwrite the oldest event; spans are most useful near
            // the end of a run, so the tail wins.
            self.ring[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events in chronological order (ring unrolled from `head`).
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }
}

/// Owns this thread's registration; the `Drop` impl retires the
/// buffer when the thread exits so its spans survive until export.
struct LocalHandle {
    buf: Arc<Mutex<ThreadBuf>>,
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let mut live = lock_recovering(&LIVE);
        live.retain(|b| !Arc::ptr_eq(b, &self.buf));
        drop(live);
        let taken = std::mem::take(&mut *lock_recovering(&self.buf));
        if taken.ring.is_empty() {
            return;
        }
        let mut retired = lock_recovering(&RETIRED);
        retired.push_back(taken);
        while retired.len() > RETIRED_CAP {
            if let Some(evicted) = retired.pop_front() {
                DROPPED.fetch_add(evicted.ring.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalHandle>> = const { RefCell::new(None) };
}

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Turns span recording on or off process-wide. Guards created while
/// disabled stay no-ops even if tracing is enabled before they drop.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before any span can take a start time.
        let _ = *EPOCH;
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity for buffers created *after* this
/// call (existing buffers keep their size). Clamped to at least 16.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP.store(cap.max(16), Ordering::Relaxed);
}

/// Starts a span with a static name. Returns a guard that records the
/// span on drop; while tracing is disabled this is a single atomic
/// load and the guard is inert.
#[must_use = "a span measures until the guard drops; binding it to _ discards it immediately"]
pub fn span(name: &'static str) -> SpanGuard {
    span_cow(Cow::Borrowed(name))
}

/// Starts a span with a computed name (e.g. `format!("replay {name}")`).
#[must_use = "a span measures until the guard drops; binding it to _ discards it immediately"]
pub fn span_owned(name: String) -> SpanGuard {
    span_cow(Cow::Owned(name))
}

/// Starts a span whose name is computed lazily — the closure only runs
/// if tracing is enabled, so instrumented hot paths never pay for the
/// `format!` while disabled.
#[must_use = "a span measures until the guard drops; binding it to _ discards it immediately"]
pub fn span_with<F: FnOnce() -> String>(name: F) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_cow(Cow::Owned(name()))
}

fn span_cow(name: Cow<'static, str>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let epoch = *EPOCH;
    SpanGuard(Some(Active {
        name,
        epoch,
        start: Instant::now(),
    }))
}

#[derive(Debug)]
struct Active {
    name: Cow<'static, str>,
    epoch: Instant,
    start: Instant,
}

/// RAII guard returned by [`span`]/[`span_owned`]; records the span
/// into the thread's ring buffer when dropped.
#[derive(Debug)]
#[must_use = "a span measures until the guard drops; binding it to _ discards it immediately"]
pub struct SpanGuard(Option<Active>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let dur_us = active.start.elapsed().as_micros() as u64;
        let ts_us = active.start.duration_since(active.epoch).as_micros() as u64;
        record(Event {
            name: active.name,
            ts_us,
            dur_us,
        });
    }
}

fn record(e: Event) {
    // `try_with` so a span dropped during thread teardown (after the
    // thread-local was destructed) is discarded instead of panicking.
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let handle = slot.get_or_insert_with(register_thread);
        lock_recovering(&handle.buf).push(e);
    });
}

fn register_thread() -> LocalHandle {
    let buf = Arc::new(Mutex::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        thread_name: std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string(),
        ring: Vec::new(),
        head: 0,
        cap: RING_CAP.load(Ordering::Relaxed),
    }));
    lock_recovering(&LIVE).push(Arc::clone(&buf));
    LocalHandle { buf }
}

/// Total events lost to ring wrap-around or retired-buffer eviction.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Number of events currently buffered (live + retired threads).
pub fn event_count() -> usize {
    let live: usize = lock_recovering(&LIVE)
        .iter()
        .map(|b| lock_recovering(b).ring.len())
        .sum();
    let retired: usize = lock_recovering(&RETIRED).iter().map(|b| b.ring.len()).sum();
    live + retired
}

/// Clears all recorded spans (live rings, retired buffers, drop
/// counter). Intended for tests.
pub fn reset() {
    for buf in lock_recovering(&LIVE).iter() {
        let mut b = lock_recovering(buf);
        b.ring.clear();
        b.head = 0;
    }
    lock_recovering(&RETIRED).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Renders everything recorded so far as Chrome trace-event JSON.
///
/// The output is a single object `{"displayTimeUnit":"ms",
/// "traceEvents":[...]}` containing one `ph:"M"` `thread_name`
/// metadata event per thread and one `ph:"X"` complete event per span
/// (timestamps and durations in microseconds), sorted by start time.
/// It loads directly in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    struct Snapshot {
        tid: u64,
        thread_name: String,
        events: Vec<Event>,
    }
    let mut snaps: Vec<Snapshot> = Vec::new();
    for buf in lock_recovering(&LIVE).iter() {
        let b = lock_recovering(buf);
        snaps.push(Snapshot {
            tid: b.tid,
            thread_name: b.thread_name.clone(),
            events: b.ordered(),
        });
    }
    for b in lock_recovering(&RETIRED).iter() {
        snaps.push(Snapshot {
            tid: b.tid,
            thread_name: b.thread_name.clone(),
            events: b.ordered(),
        });
    }
    snaps.sort_by_key(|s| s.tid);

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, item: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&item);
    };
    for s in &snaps {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                s.tid,
                escape_json(&s.thread_name)
            ),
        );
    }
    let mut events: Vec<(u64, &Event)> = Vec::new();
    for s in &snaps {
        events.extend(s.events.iter().map(|e| (s.tid, e)));
    }
    events.sort_by_key(|(tid, e)| (e.ts_us, *tid));
    for (tid, e) in events {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"llc\"}}",
                e.ts_us,
                e.dur_us,
                escape_json(&e.name)
            ),
        );
    }
    out.push_str("]}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The span globals are process-wide; serialize the tests that
    /// toggle them.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn isolated() -> MutexGuard<'static, ()> {
        let guard = lock_recovering(&SERIAL);
        set_enabled(false);
        reset();
        guard
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = isolated();
        {
            let _s = span("ignored");
        }
        assert_eq!(event_count(), 0);
        assert!(!chrome_trace_json().contains("ignored"));
    }

    #[test]
    fn spans_measure_their_scope() {
        let _guard = isolated();
        set_enabled(true);
        {
            let _s = span("timed");
            std::thread::sleep(Duration::from_millis(5));
        }
        set_enabled(false);
        let json = chrome_trace_json();
        assert!(json.contains("\"name\":\"timed\""));
        assert!(json.contains("\"ph\":\"X\""));
        // The recorded duration covers the sleep.
        let dur: u64 = json
            .split("\"dur\":")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.parse().ok())
            .expect("dur field");
        assert!(dur >= 4_000, "5ms sleep recorded as {dur}us");
    }

    #[test]
    fn exited_threads_retire_their_spans() {
        let _guard = isolated();
        set_enabled(true);
        std::thread::Builder::new()
            .name("retiree".into())
            .spawn(|| {
                let _s = span("from-a-dead-thread");
            })
            .unwrap()
            .join()
            .unwrap();
        set_enabled(false);
        let json = chrome_trace_json();
        assert!(
            json.contains("from-a-dead-thread"),
            "retired buffer must survive export"
        );
        assert!(
            json.contains("\"args\":{\"name\":\"retiree\"}"),
            "thread name metadata"
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = isolated();
        set_enabled(true);
        // A fresh thread picks up the small capacity.
        set_ring_capacity(16);
        std::thread::spawn(|| {
            for i in 0..20 {
                let _s = span_owned(format!("e{i}"));
            }
        })
        .join()
        .unwrap();
        set_ring_capacity(1 << 16);
        set_enabled(false);
        assert_eq!(dropped_events(), 4);
        let json = chrome_trace_json();
        assert!(!json.contains("\"e0\""), "oldest events are overwritten");
        assert!(json.contains("\"e19\""), "newest events survive");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let _guard = isolated();
        set_enabled(true);
        {
            let _s = span_owned("quote \" slash \\ newline \n".to_string());
        }
        set_enabled(false);
        let json = chrome_trace_json();
        assert!(json.contains("quote \\\" slash \\\\ newline \\n"));
        // No raw control characters or unescaped quotes survive.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn guards_created_while_disabled_stay_inert() {
        let _guard = isolated();
        let s = span("preexisting");
        set_enabled(true);
        drop(s);
        set_enabled(false);
        assert!(!chrome_trace_json().contains("preexisting"));
    }
}
