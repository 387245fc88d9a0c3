//! A blocking client for the daemon's JSON API — one `TcpStream`
//! connection per request, mirroring the server's `Connection: close`
//! discipline — with a retry layer that makes it safe to drive an
//! overloaded or briefly-absent daemon. This is what
//! `repro submit/status/result/watch` drive.
//!
//! ## Retry semantics
//!
//! Transient failures — connect/read I/O errors, HTTP 429 and HTTP
//! 503 — are retried with jittered exponential backoff, up to a bounded
//! attempt budget ([`RetryPolicy`]). When the server supplies a
//! `Retry-After` header, that wait is honored instead of the computed
//! backoff.
//!
//! Every API verb the client retries is idempotent by construction:
//! status/result/stats/metrics are reads, cancel is a terminal-state
//! no-op on repeat, and **submit** is idempotent because jobs are
//! content-addressed — re-submitting a spec either hits the persistent
//! store or registers another job for the same fingerprint, whose
//! execution dedupes against the store before simulating. `shutdown` is
//! deliberately *not* retried: its expected effect is the daemon going
//! away.
//!
//! The backoff jitter is derived deterministically from the request
//! (address, path, attempt) via splitmix64, keeping client behavior
//! reproducible under test without any clock- or OS-seeded randomness.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use llc_sharing::json::{self, Value};
use llc_sim::{fnv1a64, splitmix64};
use llc_telemetry::metrics::{global, Counter};

use crate::http::parse_response_full;
use crate::jobs::JobId;
use crate::server::MAX_WAIT_MS;
use crate::spec::JobSpec;
use crate::{io_err, ServeError};

static RETRIES: LazyLock<std::sync::Arc<Counter>> = LazyLock::new(|| {
    global().counter(
        "llc_client_retries_total",
        "Requests re-sent by the client retry layer (transient I/O, 429, 503)",
    )
});

/// How the client retries transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub budget: u32,
    /// Backoff before retry `n` is `base * 2^n`, jittered.
    pub base: Duration,
    /// Upper bound on any single wait, including `Retry-After` waits.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 4,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        }
    }

    /// The jittered wait before retry number `attempt` of `path`:
    /// exponential in the attempt, scaled by a deterministic 50–100%
    /// jitter factor so synchronized clients de-correlate.
    fn backoff(&self, seed: u64, path: &str, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let draw = splitmix64(seed ^ fnv1a64(path.as_bytes()) ^ u64::from(attempt));
        // 50%..100% of the exponential step.
        let scaled = exp.mul_f64(0.5 + (draw % 512) as f64 / 1024.0);
        scaled.min(self.cap)
    }
}

/// A client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    retry: RetryPolicy,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7119`) with a
    /// 10-second per-request socket timeout and the default
    /// [`RetryPolicy`].
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the retry policy (`RetryPolicy::none()` for the old
    /// fail-fast behavior).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Performs one request (with retries) and decodes the JSON answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket failures that outlast the retry
    /// budget, [`ServeError::Protocol`] for unparsable answers, and
    /// [`ServeError::Api`] for any non-2xx status (carrying the server's
    /// `error` message).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Value, ServeError> {
        let (status, text) = self.request_text(method, path, body)?;
        let value = json::parse(&text)
            .map_err(|e| ServeError::Protocol(format!("bad JSON in response: {e}")))?;
        if (200..300).contains(&status) {
            Ok(value)
        } else {
            let message = value
                .field("error")
                .and_then(Value::as_str)
                .unwrap_or("unspecified server error")
                .to_string();
            Err(ServeError::Api { status, message })
        }
    }

    /// Performs one request (with retries) and returns the status code
    /// and raw body — for non-JSON endpoints like the Prometheus
    /// `/metrics` exposition.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket failures that outlast the retry
    /// budget and [`ServeError::Protocol`] for answers without a
    /// parsable status line.
    pub fn request_text(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ServeError> {
        let seed = fnv1a64(self.addr.as_bytes());
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(method, path, body);
            let wait = match &outcome {
                // 429/503 are the server's explicit "try later"; honor
                // its Retry-After when present (clamped by the policy).
                Ok((429 | 503, headers, _)) => {
                    let hinted = headers
                        .iter()
                        .find(|(name, _)| name == "retry-after")
                        .and_then(|(_, v)| v.parse::<u64>().ok())
                        .map(Duration::from_secs);
                    Some(
                        hinted
                            .unwrap_or_else(|| self.retry.backoff(seed, path, attempt))
                            .min(self.retry.cap),
                    )
                }
                Ok(_) => None,
                // Transient transport failures: daemon restarting,
                // connection cap, handler thread lost. All verbs routed
                // here are idempotent (see module docs).
                Err(ServeError::Io { .. }) | Err(ServeError::Timeout { .. }) => {
                    Some(self.retry.backoff(seed, path, attempt))
                }
                Err(_) => None,
            };
            match (outcome, wait) {
                (outcome, None) => {
                    return outcome.map(|(status, _, body)| (status, body));
                }
                (outcome, Some(_)) if attempt >= self.retry.budget => {
                    return outcome.map(|(status, _, body)| (status, body));
                }
                (_, Some(wait)) => {
                    RETRIES.inc();
                    std::thread::sleep(wait);
                    attempt += 1;
                }
            }
        }
    }

    /// One request on one fresh connection, no retries.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<crate::http::ParsedResponse, ServeError> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| io_err(format!("connecting to {}", self.addr), e))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| io_err("setting socket timeout", e))?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .map_err(|e| io_err(format!("sending {method} {path}"), e))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| io_err(format!("reading the {method} {path} response"), e))?;
        parse_response_full(&raw)
    }

    /// Scrapes the daemon's Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// See [`Client::request_text`]; a non-2xx status is a
    /// [`ServeError::Api`] carrying the raw body as its message.
    pub fn metrics(&self) -> Result<String, ServeError> {
        let (status, text) = self.request_text("GET", "/metrics", None)?;
        if (200..300).contains(&status) {
            Ok(text)
        } else {
            Err(ServeError::Api {
                status,
                message: text,
            })
        }
    }

    /// Submits a job; the answer carries `id`, `state` and `fingerprint`
    /// (state `done` means it was served from the persistent store).
    /// Safe to retry: specs are content-addressed, so a re-submission
    /// can never run the same work twice behind the client's back.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn submit(&self, spec: &JobSpec) -> Result<Value, ServeError> {
        self.request("POST", "/jobs", Some(&spec.to_json().render()))
    }

    /// Resolves a spec against the daemon's artifact DAG without
    /// admitting it: the answer lists every node the run would touch
    /// with its kind, fingerprint, hit/miss state and stored size.
    /// Read-only and safe to retry.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn plan(&self, spec: &JobSpec) -> Result<Value, ServeError> {
        self.request("POST", "/plan", Some(&spec.to_json().render()))
    }

    /// Fetches a job's status document.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn status(&self, id: JobId) -> Result<Value, ServeError> {
        self.request("GET", &format!("/jobs/{id}"), None)
    }

    /// Fetches a completed job's tables document.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; an unfinished job is a 409 [`ServeError::Api`].
    pub fn result(&self, id: JobId) -> Result<Value, ServeError> {
        self.request("GET", &format!("/jobs/{id}/result"), None)
    }

    /// Cancels a job (idempotent: cancelling a terminal job re-reports
    /// its terminal state).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn cancel(&self, id: JobId) -> Result<Value, ServeError> {
        self.request("DELETE", &format!("/jobs/{id}"), None)
    }

    /// Fetches the store/service counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&self) -> Result<Value, ServeError> {
        self.request("GET", "/store/stats", None)
    }

    /// Asks the daemon to shut down. Never retried — once the request
    /// has plausibly been delivered, "connection went away" is success,
    /// not a transient failure.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&self) -> Result<Value, ServeError> {
        self.clone()
            .with_retry(RetryPolicy::none())
            .request("POST", "/shutdown", None)
    }

    /// Waits for a job to reach a terminal state (or for `deadline` to
    /// elapse) and returns the final status document. Each request is a
    /// `GET /jobs/{id}?wait_ms=N` long-poll that the daemon answers as
    /// soon as the job ends, so there is no client-side poll interval.
    ///
    /// # Errors
    ///
    /// Request errors propagate; a blown deadline is a
    /// [`ServeError::Protocol`] naming the last observed state.
    pub fn watch(&self, id: JobId, deadline: Duration) -> Result<Value, ServeError> {
        let started = Instant::now();
        loop {
            let wait = deadline
                .saturating_sub(started.elapsed())
                .min(Duration::from_millis(MAX_WAIT_MS));
            let path = format!("/jobs/{id}?wait_ms={}", wait.as_millis());
            let status = self.request("GET", &path, None)?;
            let state = status
                .field("state")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                return Ok(status);
            }
            if started.elapsed() >= deadline {
                return Err(ServeError::Protocol(format!(
                    "job {id} still {state} after {deadline:?}"
                )));
            }
        }
    }
}

/// Extracts the job id from a submit/status document.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] if the document has no numeric `id`.
pub fn job_id_of(doc: &Value) -> Result<JobId, ServeError> {
    doc.field("id")
        .and_then(Value::as_u64)
        .map(JobId)
        .ok_or_else(|| ServeError::Protocol("response has no job id".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that retry: `RETRIES` is process-global, so
    /// a retrying test on a parallel thread would skew another's count.
    static RETRYING: Mutex<()> = Mutex::new(());

    fn retrying() -> MutexGuard<'static, ()> {
        RETRYING
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn backoff_grows_is_jittered_and_capped() {
        let policy = RetryPolicy::default();
        let b0 = policy.backoff(1, "/jobs", 0);
        let b3 = policy.backoff(1, "/jobs", 3);
        assert!(b0 >= policy.base / 2 && b0 <= policy.base);
        assert!(b3 > b0, "later attempts wait longer");
        assert!(policy.backoff(1, "/jobs", 30) <= policy.cap);
        // Deterministic per (seed, path, attempt); different paths
        // de-correlate.
        assert_eq!(policy.backoff(1, "/jobs", 2), policy.backoff(1, "/jobs", 2));
        let spread: std::collections::HashSet<Duration> = (0..8)
            .map(|seed| policy.backoff(seed, "/jobs", 2))
            .collect();
        assert!(spread.len() > 1, "jitter must vary across seeds");
    }

    #[test]
    fn retries_connect_failures_until_budget_then_reports_io() {
        let _serial = retrying();
        // Nothing listens on this port (bound-then-dropped).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let policy = RetryPolicy {
            budget: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        };
        let client = Client::new(&addr).with_retry(policy);
        let before = RETRIES.get();
        let err = client.stats().expect_err("no daemon");
        assert!(matches!(err, ServeError::Io { .. }), "{err}");
        assert_eq!(RETRIES.get() - before, 2, "budget bounds the retries");
    }

    #[test]
    fn honors_retry_after_from_429_then_succeeds() {
        let _serial = retrying();
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // First answer: 429 with a zero-second Retry-After. Second:
            // 200.
            for (i, conn) in listener.incoming().take(2).enumerate() {
                let mut conn = conn.expect("accept");
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let body = if i == 0 {
                    "{\"error\":\"queue full\"}"
                } else {
                    "{\"ok\":true}"
                };
                let status = if i == 0 {
                    "429 Too Many Requests\r\nRetry-After: 0"
                } else {
                    "200 OK"
                };
                let raw = format!(
                    "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                conn.write_all(raw.as_bytes()).expect("write");
            }
        });
        let client = Client::new(&addr).with_retry(RetryPolicy {
            budget: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
        });
        let doc = client.stats().expect("second attempt succeeds");
        assert_eq!(doc.field("ok"), Some(&Value::Bool(true)));
        server.join().expect("server");
    }

    #[test]
    fn api_errors_other_than_backpressure_are_not_retried() {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let mut served = 0u32;
            // Serve at most one 404; a retry would hang on accept and
            // fail the take() below.
            for conn in listener.incoming().take(1) {
                let mut conn = conn.expect("accept");
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let body = "{\"error\":\"no such job\"}";
                let raw = format!(
                    "HTTP/1.1 404 Not Found\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                conn.write_all(raw.as_bytes()).expect("write");
                served += 1;
            }
            served
        });
        let client = Client::new(&addr);
        let err = client.status(JobId(9)).expect_err("404");
        assert!(matches!(err, ServeError::Api { status: 404, .. }), "{err}");
        assert_eq!(server.join().expect("server"), 1);
    }
}
