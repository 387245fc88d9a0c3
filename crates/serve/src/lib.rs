//! # llc-serve — the simulation service
//!
//! A long-lived daemon that turns the one-shot experiment CLI into a
//! queryable simulation platform: jobs arrive over a minimal HTTP/1.1
//! JSON API (std-only — a hand-rolled server on `TcpListener`, no
//! external dependencies), are scheduled on the same bounded scoped
//! worker pool the suite runner uses
//! ([`llc_sharing::scoped_workers`]), and every expensive artifact is
//! memoized in a persistent content-addressed store:
//!
//! * **Streams** — recorded `.llcs` LLC reference streams, keyed by
//!   [`StreamKey::recording_fingerprint`](llc_sharing::StreamKey::recording_fingerprint)
//!   (workload × threads × scale × private hierarchy, so every
//!   non-inclusive LLC size shares one file). The in-process
//!   [`StreamCache`](llc_sharing::StreamCache) is a bounded read-through
//!   layer over this store.
//! * **Results** — rendered experiment tables, keyed by a fingerprint of
//!   the fully-resolved job spec (experiment × machine × workload set).
//!   A re-submitted spec is a store hit that never touches the
//!   simulator — even across daemon restarts, because the hit comes from
//!   disk, not process memory.
//!
//! ## API surface
//!
//! | Method & path          | Meaning                                      |
//! |------------------------|----------------------------------------------|
//! | `POST /jobs`           | submit an experiment spec (JSON body)        |
//! | `GET /jobs/{id}`       | job status + progress                        |
//! | `GET /jobs/{id}?wait_ms=N` | long-poll: the status once the job is    |
//! |                        | terminal, or after `N` ms (at most           |
//! |                        | [`server::MAX_WAIT_MS`])                     |
//! | `GET /jobs/{id}/result`| the completed job's tables                   |
//! | `DELETE /jobs/{id}`    | cancel (a running job is abandoned, exactly  |
//! |                        | like a suite watchdog timeout)               |
//! | `POST /sessions`       | open a live streaming characterization       |
//! |                        | session (see [`sessions`])                   |
//! | `POST /sessions/{id}/batch` | push an access batch; answers the       |
//! |                        | post-batch sliding-window stats snapshot     |
//! | `GET /sessions/{id}/stats` | the session's current characterization   |
//! | `DELETE /sessions/{id}`| close the session and drop its checkpoint    |
//! | `GET /store/stats`     | hit/miss/eviction counters, bytes on disk,   |
//! |                        | admission state                              |
//! | `GET /metrics`         | Prometheus text exposition (jobs, request    |
//! |                        | latencies, stream cache)                     |
//! | `GET /healthz`         | liveness probe                               |
//!
//! The `repro` binary wires this up as `repro serve` (daemon) and
//! `repro submit/status/result/watch/stats` (client); see [`cli`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod cli;
pub mod client;
pub mod gc;
pub mod http;
pub mod jobs;
pub mod server;
pub mod sessions;
pub mod spec;
pub mod store;

pub use chaos::{ChaosPlan, ChaosPoint};
pub use client::{Client, RetryPolicy};
pub use gc::GcReport;
pub use jobs::{JobId, JobState};
pub use llc_sharing::results::ResultStore;
pub use server::{Server, ServerConfig, ServerControl};
pub use sessions::SessionTable;
pub use spec::JobSpec;
pub use store::Store;

use std::fmt;
use std::io;

use llc_sharing::RunError;

/// Error produced by the service layer (daemon or client).
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The peer spoke malformed HTTP or JSON.
    Protocol(String),
    /// A read or wait lapsed its wall-clock deadline (slow peer,
    /// saturated server). Retryable, unlike [`ServeError::Protocol`].
    Timeout {
        /// What was being waited for.
        context: String,
    },
    /// The server answered a client request with an error status.
    Api {
        /// The HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
    },
    /// An underlying simulation/suite error.
    Run(RunError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "I/O error ({context}): {source}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Timeout { context } => write!(f, "timed out while {context}"),
            ServeError::Api { status, message } => {
                write!(f, "server rejected the request (HTTP {status}): {message}")
            }
            ServeError::Run(e) => write!(f, "run error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> Self {
        ServeError::Run(e)
    }
}

/// Wraps an [`io::Error`] with a context string.
pub(crate) fn io_err(context: impl Into<String>, source: io::Error) -> ServeError {
    ServeError::Io {
        context: context.into(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_layer() {
        let e = ServeError::Protocol("bad request line".into());
        assert!(e.to_string().contains("bad request line"));
        let e = ServeError::Api {
            status: 404,
            message: "no such job".into(),
        };
        assert!(e.to_string().contains("404"));
        let e = io_err(
            "binding listener",
            io::Error::new(io::ErrorKind::AddrInUse, "busy"),
        );
        assert!(e.to_string().contains("binding listener"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
