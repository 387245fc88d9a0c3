//! Typed errors for the simulation driver and experiment runner.

use std::fmt;
use std::io;
use std::time::Duration;

use llc_sim::{ConfigError, SimError};
use llc_trace::TraceError;

/// Error produced while driving a simulation or an experiment suite.
///
/// The variants separate the three layers a run can fail in: the
/// simulator itself (`Sim`), the trace pipeline feeding it (`Trace`), and
/// the suite harness around it (`Panicked`, `TimedOut`, `Io`). Harness
/// variants carry the experiment label so a failed row in a suite report
/// is self-describing; `Io` carries what was being attempted, and a
/// stored result that does not decode is an `Io` error of kind
/// [`io::ErrorKind::InvalidData`].
#[derive(Debug)]
pub enum RunError {
    /// The simulator rejected its configuration or an access.
    Sim(SimError),
    /// The trace source failed to decode or encode.
    Trace(TraceError),
    /// An experiment worker panicked; the payload is the panic message.
    Panicked {
        /// Experiment label (e.g. `fig7`).
        label: String,
        /// The panic payload, stringified.
        reason: String,
    },
    /// An experiment exceeded the suite watchdog's wall-clock budget.
    TimedOut {
        /// Experiment label (e.g. `fig7`).
        label: String,
        /// The budget that was exceeded.
        limit: Duration,
    },
    /// A filesystem operation failed, or a stored file did not decode.
    Io {
        /// What was being attempted (e.g. a path).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// An experiment id string matched no known experiment.
    UnknownExperiment {
        /// The unrecognized id.
        id: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::Trace(e) => write!(f, "trace error: {e}"),
            RunError::Panicked { label, reason } => {
                write!(f, "experiment {label} panicked: {reason}")
            }
            RunError::TimedOut { label, limit } => {
                write!(
                    f,
                    "experiment {label} exceeded its {:.0?} time budget",
                    limit
                )
            }
            RunError::Io { context, source } => write!(f, "I/O error ({context}): {source}"),
            RunError::UnknownExperiment { id } => write!(f, "unknown experiment id {id:?}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::Trace(e) => Some(e),
            RunError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Sim(SimError::Config(e))
    }
}

impl From<TraceError> for RunError {
    fn from(e: TraceError) -> Self {
        RunError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_layer() {
        let e = RunError::Panicked {
            label: "fig7".into(),
            reason: "boom".into(),
        };
        assert!(e.to_string().contains("fig7"));
        assert!(e.to_string().contains("boom"));
        let e = RunError::TimedOut {
            label: "abl1".into(),
            limit: Duration::from_secs(30),
        };
        assert!(e.to_string().contains("abl1"));
        let e = RunError::UnknownExperiment { id: "fig99".into() };
        assert!(e.to_string().contains("fig99"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let bad = llc_sim::CacheConfig::new(0, 0).expect_err("zero config is invalid");
        let e: RunError = bad.into();
        assert!(matches!(e, RunError::Sim(SimError::Config(_))));
        assert!(std::error::Error::source(&e).is_some());
    }
}
