//! # llc-ingest — foreign access-trace ingestion
//!
//! The reproduction's characterization pipeline is trace-driven, but the
//! rest of the workspace only *generates* traces (the synthetic PARSEC /
//! SPLASH-2 models in `llc-trace`). This crate is the way in for traces
//! produced elsewhere: each supported foreign format decodes into the
//! native [`MemAccess`] record through a
//! [`TraceSource`] implementation, so an ingested trace flows through the
//! exact same `StreamRecorder` → `.llcs` → replay path as a synthetic
//! workload — the DAG, the sharded replay drivers and the zero-copy views
//! all work unchanged.
//!
//! Three formats are supported (see [`IngestFormat`]):
//!
//! * **ChampSim-style CSV** ([`champsim`]) — one access per line,
//!   `instr,core,pc,addr,kind`, the interchange form used to move traces
//!   between simulators. [`champsim::export_champsim_csv`] writes it, so
//!   round-trips are testable.
//! * **Compact binary** ([`binary`]) — the `LLCB` fixed-record format:
//!   a 16-byte header and 22-byte records, for bulk traces where CSV is
//!   too fat.
//! * **Cachegrind-like logs** ([`cachegrind`]) — `I`/`L`/`S`/`M` lines as
//!   printed by valgrind's cache simulators, with a `T <core>` extension
//!   for multi-threaded logs.
//!
//! All three parsers follow the hardened decoder discipline of
//! `llc-trace`: every way an input can be malformed maps to a typed
//! [`TraceError`] (truncation, bad magic, out-of-range cores, and the
//! foreign-format [`TraceError::MalformedRecord`]); nothing panics; and
//! because each parser reads from any [`Read`] they are
//! fault-injectable byte-by-byte through
//! [`llc_trace::CorruptingReader`].
//!
//! Errors are *parked*, not thrown mid-iteration: a parser yields records
//! until the first malformed one, then ends the stream and surfaces the
//! error through [`TraceSource::take_error`] — the contract the record
//! drivers already rely on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod cachegrind;
pub mod champsim;

use std::io::Read;
use std::path::Path;

use llc_sim::MemAccess;
use llc_trace::{TraceError, TraceSource};

pub use binary::{write_binary_trace, BinaryTraceSource, LLCB_HEADER_BYTES, LLCB_RECORD_BYTES};
pub use cachegrind::CachegrindSource;
pub use champsim::{export_champsim_csv, ChampsimCsvSource};

/// The foreign trace formats this crate can decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IngestFormat {
    /// ChampSim-style CSV: `instr,core,pc,addr,kind` per line.
    ChampsimCsv,
    /// The compact `LLCB` binary access-trace format.
    Binary,
    /// Cachegrind-like `I`/`L`/`S`/`M` log lines.
    Cachegrind,
}

impl IngestFormat {
    /// Every supported format, in documentation order.
    pub const ALL: [IngestFormat; 3] = [
        IngestFormat::ChampsimCsv,
        IngestFormat::Binary,
        IngestFormat::Cachegrind,
    ];

    /// The format's canonical name, as accepted by
    /// [`IngestFormat::from_name`] and used as a metric label.
    pub fn label(self) -> &'static str {
        match self {
            IngestFormat::ChampsimCsv => "champsim-csv",
            IngestFormat::Binary => "llcb",
            IngestFormat::Cachegrind => "cachegrind",
        }
    }

    /// Parses a format name (the `--format` CLI flag). Accepts the
    /// canonical label plus common aliases.
    pub fn from_name(name: &str) -> Option<IngestFormat> {
        match name.to_ascii_lowercase().as_str() {
            "champsim-csv" | "champsim" | "csv" => Some(IngestFormat::ChampsimCsv),
            "llcb" | "binary" | "bin" => Some(IngestFormat::Binary),
            "cachegrind" | "cg" => Some(IngestFormat::Cachegrind),
            _ => None,
        }
    }

    /// Guesses the format from a file extension (`.csv`, `.llcb`, `.cg`).
    pub fn detect(path: &Path) -> Option<IngestFormat> {
        match path.extension()?.to_str()? {
            "csv" => Some(IngestFormat::ChampsimCsv),
            "llcb" => Some(IngestFormat::Binary),
            "cg" => Some(IngestFormat::Cachegrind),
            _ => None,
        }
    }
}

impl std::fmt::Display for IngestFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A parser for any supported format behind one [`TraceSource`]: the
/// generic record drivers monomorphize over this enum instead of needing
/// a `dyn` source.
#[derive(Debug)]
pub enum IngestSource<R: Read> {
    /// Decoding ChampSim-style CSV.
    Champsim(ChampsimCsvSource<R>),
    /// Decoding the `LLCB` binary format.
    Binary(BinaryTraceSource<R>),
    /// Decoding a cachegrind-like log.
    Cachegrind(CachegrindSource<R>),
}

impl<R: Read> IngestSource<R> {
    /// Opens a parser for `format` over `reader`, with accesses limited
    /// to cores `< cores`.
    ///
    /// # Errors
    ///
    /// The binary format validates its header eagerly
    /// ([`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
    /// [`TraceError::TruncatedHeader`]); the text formats cannot fail
    /// until records are pulled.
    pub fn open(format: IngestFormat, reader: R, cores: usize) -> Result<Self, TraceError> {
        metrics::files_opened(format);
        Ok(match format {
            IngestFormat::ChampsimCsv => {
                IngestSource::Champsim(ChampsimCsvSource::new(reader).with_core_limit(cores))
            }
            IngestFormat::Binary => {
                IngestSource::Binary(BinaryTraceSource::new(reader)?.with_core_limit(cores))
            }
            IngestFormat::Cachegrind => {
                IngestSource::Cachegrind(CachegrindSource::new(reader).with_core_limit(cores))
            }
        })
    }
}

impl<R: Read> TraceSource for IngestSource<R> {
    fn next_access(&mut self) -> Option<MemAccess> {
        let next = match self {
            IngestSource::Champsim(s) => s.next_access(),
            IngestSource::Binary(s) => s.next_access(),
            IngestSource::Cachegrind(s) => s.next_access(),
        };
        if next.is_some() {
            metrics::METRICS.records.inc();
        }
        next
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            IngestSource::Champsim(s) => s.len_hint(),
            IngestSource::Binary(s) => s.len_hint(),
            IngestSource::Cachegrind(s) => s.len_hint(),
        }
    }

    fn take_error(&mut self) -> Option<TraceError> {
        let e = match self {
            IngestSource::Champsim(s) => s.take_error(),
            IngestSource::Binary(s) => s.take_error(),
            IngestSource::Cachegrind(s) => s.take_error(),
        };
        if e.is_some() {
            metrics::METRICS.errors.inc();
        }
        e
    }
}

/// A stable content-addressed fingerprint for an ingested trace:
/// FNV-1a over the raw input bytes folded (splitmix64 chain, seeded
/// `"LLCSING1"`) with the format, the core limit and the recording
/// hierarchy's own fingerprint. Used to key ingested `.llcs` recordings
/// in a [`StreamStore`](llc_trace::StreamStore) without perturbing the
/// synthetic workloads' `StreamKey` fingerprint scheme.
pub fn ingest_fingerprint(
    format: IngestFormat,
    raw: &[u8],
    cores: usize,
    config_fingerprint: u64,
) -> u64 {
    let mut content: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in raw {
        content ^= u64::from(b);
        content = content.wrapping_mul(0x100_0000_01b3);
    }
    let mut h: u64 = 0x4c4c_4353_494e_4731; // "LLCSING1"
    let mut fold = |v: u64| h = llc_sim::splitmix64(h ^ v);
    fold(match format {
        IngestFormat::ChampsimCsv => 1,
        IngestFormat::Binary => 2,
        IngestFormat::Cachegrind => 3,
    });
    fold(content);
    fold(cores as u64);
    fold(config_fingerprint);
    h
}

pub(crate) mod metrics {
    //! Ingestion telemetry (`llc_ingest_*`), registered in the global
    //! registry on first use and eagerly via [`register`].

    use std::sync::{Arc, LazyLock};

    use llc_telemetry::metrics::{global, Counter};

    use crate::IngestFormat;

    pub(crate) struct Metrics {
        pub records: Arc<Counter>,
        pub errors: Arc<Counter>,
        files: [Arc<Counter>; 3],
    }

    pub(crate) static METRICS: LazyLock<Metrics> = LazyLock::new(|| Metrics {
        records: global().counter(
            "llc_ingest_records_total",
            "Foreign trace records decoded across all ingest formats",
        ),
        errors: global().counter(
            "llc_ingest_errors_total",
            "Foreign traces that ended in a typed decode error",
        ),
        files: [
            file_counter(IngestFormat::ChampsimCsv),
            file_counter(IngestFormat::Binary),
            file_counter(IngestFormat::Cachegrind),
        ],
    });

    fn file_counter(format: IngestFormat) -> Arc<Counter> {
        global().counter_with(
            "llc_ingest_files_total",
            "Foreign trace files opened for ingestion, by format",
            &[("format", format.label())],
        )
    }

    pub(crate) fn files_opened(format: IngestFormat) {
        let idx = match format {
            IngestFormat::ChampsimCsv => 0,
            IngestFormat::Binary => 1,
            IngestFormat::Cachegrind => 2,
        };
        METRICS.files[idx].inc();
    }

    /// Forces registration of every `llc_ingest_*` series so scrapes see
    /// them (at zero) before the first ingestion.
    pub fn register() {
        LazyLock::force(&METRICS);
    }
}

pub use metrics::register as register_metrics;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for f in IngestFormat::ALL {
            assert_eq!(IngestFormat::from_name(f.label()), Some(f));
        }
        assert_eq!(
            IngestFormat::from_name("CHAMPSIM"),
            Some(IngestFormat::ChampsimCsv)
        );
        assert_eq!(IngestFormat::from_name("nope"), None);
    }

    #[test]
    fn detect_by_extension() {
        assert_eq!(
            IngestFormat::detect(Path::new("a/b/trace.csv")),
            Some(IngestFormat::ChampsimCsv)
        );
        assert_eq!(
            IngestFormat::detect(Path::new("t.llcb")),
            Some(IngestFormat::Binary)
        );
        assert_eq!(
            IngestFormat::detect(Path::new("t.cg")),
            Some(IngestFormat::Cachegrind)
        );
        assert_eq!(IngestFormat::detect(Path::new("t.bin")), None);
        assert_eq!(IngestFormat::detect(Path::new("noext")), None);
    }

    #[test]
    fn fingerprints_separate_format_content_and_config() {
        let a = ingest_fingerprint(IngestFormat::ChampsimCsv, b"x,y", 4, 1);
        assert_eq!(
            a,
            ingest_fingerprint(IngestFormat::ChampsimCsv, b"x,y", 4, 1)
        );
        assert_ne!(a, ingest_fingerprint(IngestFormat::Binary, b"x,y", 4, 1));
        assert_ne!(
            a,
            ingest_fingerprint(IngestFormat::ChampsimCsv, b"x,z", 4, 1)
        );
        assert_ne!(
            a,
            ingest_fingerprint(IngestFormat::ChampsimCsv, b"x,y", 8, 1)
        );
        assert_ne!(
            a,
            ingest_fingerprint(IngestFormat::ChampsimCsv, b"x,y", 4, 2)
        );
    }
}
