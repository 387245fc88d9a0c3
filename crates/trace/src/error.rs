//! Typed errors for every trace format: the recorded `.llcs` stream, the
//! `LLCB` raw access trace and the foreign text formats of `llc-ingest`.

use std::fmt;
use std::io;

/// Error produced while encoding or decoding a trace.
///
/// Every way a trace file can be malformed maps to a distinct variant, so
/// callers can distinguish "the file is not a trace at all" from "the
/// trace was cut short" from "a record is internally inconsistent" — and
/// none of them panics.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O error other than a clean truncation.
    Io(io::Error),
    /// The file does not start with its format's magic bytes.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The header declares a format version this decoder cannot read.
    UnsupportedVersion {
        /// The declared version.
        version: u16,
    },
    /// The stream ended inside the fixed-size header.
    TruncatedHeader {
        /// Header bytes actually present.
        got: usize,
        /// Header bytes the format requires (16 for `LLCB` traces,
        /// 128 for `.llcs` stream recordings).
        expected: usize,
    },
    /// The stream ended inside a record, or before the declared record
    /// count was reached.
    Truncated {
        /// Records successfully decoded before the cut.
        decoded: u64,
        /// Records the header declared.
        declared: u64,
    },
    /// A record names a core outside the decoder's configured limit.
    CoreOutOfRange {
        /// The record's core id.
        core: u8,
        /// The active limit (either `MAX_CORES` or the replaying
        /// hierarchy's core count).
        limit: usize,
        /// Index of the offending record.
        index: u64,
    },
    /// A record's kind byte is neither 0 (read) nor 1 (write).
    BadKind {
        /// The record's kind byte.
        kind: u8,
        /// Index of the offending record.
        index: u64,
    },
    /// A writer's source produced fewer records than its length hint
    /// declared, so the header already written would lie.
    CountMismatch {
        /// Records the header declared.
        declared: u64,
        /// Records actually written.
        written: u64,
    },
    /// A writer's source produced more records than its length hint
    /// declared in the header.
    RecordOverflow {
        /// Records the header declared.
        declared: u64,
    },
    /// An access carries a core id the 1-byte record encoding cannot hold.
    CoreUnencodable {
        /// The offending core id.
        core: usize,
    },
    /// A `.llcs` arena's byte length does not match the section sizes its
    /// header declares. The `.llcs` view validator requires an
    /// exactly-sized arena: a *shorter* one is reported as
    /// [`TraceError::Truncated`], so this variant specifically means the
    /// arena carries trailing bytes no section accounts for (a misaligned
    /// or garbage-padded file).
    ArenaSizeMismatch {
        /// Bytes the header's record counts require.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A record of a *foreign* trace format (ChampSim-style CSV, compact
    /// binary, cachegrind-like log — see `llc-ingest`) is syntactically
    /// malformed: wrong field count, an unparsable integer, an unknown
    /// line tag. Structural problems (truncation, bad magic, out-of-range
    /// cores) reuse the native variants above so callers match one
    /// failure taxonomy across every format.
    MalformedRecord {
        /// Short name of the foreign format ("champsim-csv", "llcb",
        /// "cachegrind").
        format: &'static str,
        /// Index of the offending record (line number for text formats,
        /// counting from 1).
        index: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// An upgrade record in a `.llcs` stream recording is out of order or
    /// points past the end of the access stream.
    BadUpgrade {
        /// The record's claimed position in the LLC access stream.
        at: u64,
        /// The recording's declared access count (`at` may be at most this:
        /// an upgrade after the last access is applied before the flush).
        accesses: u64,
        /// Index of the offending upgrade record.
        index: u64,
    },
    /// A stored `.llcs` stream was recorded under a different hierarchy
    /// than the one its store key names: the file is well formed but
    /// answers for the wrong configuration, so replaying it would fail.
    FingerprintMismatch {
        /// The hierarchy fingerprint in the stream's header.
        found: u64,
        /// The fingerprint of the hierarchy the store key names.
        expected: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "unrecognised magic bytes {found:02x?}")
            }
            TraceError::UnsupportedVersion { version } => {
                write!(f, "unsupported trace version {version}")
            }
            TraceError::TruncatedHeader { got, expected } => {
                write!(f, "truncated header: got {got} of {expected} bytes")
            }
            TraceError::Truncated { decoded, declared } => {
                write!(
                    f,
                    "truncated trace: decoded {decoded} of {declared} declared records"
                )
            }
            TraceError::CoreOutOfRange { core, limit, index } => {
                write!(
                    f,
                    "record {index}: core id {core} out of range (limit {limit})"
                )
            }
            TraceError::BadKind { kind, index } => {
                write!(
                    f,
                    "record {index}: invalid access kind {kind} (expected 0 or 1)"
                )
            }
            TraceError::CountMismatch { declared, written } => {
                write!(f, "declared {declared} records but wrote {written}")
            }
            TraceError::RecordOverflow { declared } => {
                write!(f, "more records than the declared {declared} in the header")
            }
            TraceError::CoreUnencodable { core } => {
                write!(f, "core id {core} does not fit the 1-byte record encoding")
            }
            TraceError::ArenaSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "arena size mismatch: header declares {expected} bytes but {actual} are present"
                )
            }
            TraceError::MalformedRecord {
                format,
                index,
                reason,
            } => {
                write!(f, "{format} record {index}: {reason}")
            }
            TraceError::BadUpgrade {
                at,
                accesses,
                index,
            } => {
                write!(
                    f,
                    "upgrade record {index}: position {at} is out of order or past the \
                     {accesses} recorded accesses"
                )
            }
            TraceError::FingerprintMismatch { found, expected } => {
                write!(
                    f,
                    "stream recorded under hierarchy {found:#018x}, expected {expected:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(TraceError, &str)> = vec![
            (
                TraceError::BadMagic { found: *b"NOPE" },
                "unrecognised magic bytes",
            ),
            (TraceError::UnsupportedVersion { version: 9 }, "version 9"),
            (
                TraceError::TruncatedHeader {
                    got: 3,
                    expected: 16,
                },
                "3 of 16",
            ),
            (
                TraceError::Truncated {
                    decoded: 5,
                    declared: 10,
                },
                "5 of 10",
            ),
            (
                TraceError::CoreOutOfRange {
                    core: 40,
                    limit: 32,
                    index: 7,
                },
                "core id 40",
            ),
            (
                TraceError::BadKind { kind: 3, index: 2 },
                "invalid access kind 3",
            ),
            (
                TraceError::CountMismatch {
                    declared: 2,
                    written: 1,
                },
                "declared 2",
            ),
            (TraceError::RecordOverflow { declared: 1 }, "more records"),
            (
                TraceError::MalformedRecord {
                    format: "champsim-csv",
                    index: 12,
                    reason: "expected 5 comma-separated fields",
                },
                "champsim-csv record 12",
            ),
            (TraceError::CoreUnencodable { core: 300 }, "core id 300"),
            (
                TraceError::ArenaSizeMismatch {
                    expected: 128,
                    actual: 130,
                },
                "declares 128 bytes",
            ),
            (
                TraceError::BadUpgrade {
                    at: 9,
                    accesses: 4,
                    index: 1,
                },
                "position 9",
            ),
            (
                TraceError::FingerprintMismatch {
                    found: 1,
                    expected: 2,
                },
                "expected 0x0000000000000002",
            ),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_errors_keep_their_source() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::PermissionDenied, "nope"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
