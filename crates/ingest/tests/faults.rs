//! Fault-injection sweep over every ingest parser: bit-flipped,
//! truncated and deliberately overlong/corrupt inputs must end in a
//! typed [`TraceError`] (or a clean shorter trace, for text formats cut
//! exactly on a record boundary) — never a panic, never an access on a
//! core outside the configured limit.
//!
//! The sweeps reuse [`llc_trace::CorruptingReader`] so the adversary is
//! the same deterministic one the `.llcs` validator is hardened against.
//! The LLCB writer is attacked from the other side by
//! [`llc_trace::FaultInjectingSource`], whose length hint lies.

use llc_ingest::{
    export_champsim_csv, write_binary_trace, IngestFormat, IngestSource, LLCB_HEADER_BYTES,
    LLCB_RECORD_BYTES,
};
use llc_sim::{splitmix64, AccessKind, Addr, CoreId, MemAccess, Pc};
use llc_trace::{
    CorruptingReader, Fault, FaultInjectingSource, FaultPlan, TraceError, TraceSource, VecSource,
};

const CORES: usize = 4;

/// Deterministic multi-core trace with private, read-shared and
/// write-shared blocks — enough structure that every parser field is
/// exercised.
fn sample_trace() -> Vec<MemAccess> {
    let mut out = Vec::new();
    let mut state = 0x1c3a_5f77u64;
    for i in 0..160u64 {
        state = splitmix64(state.wrapping_add(i));
        let core = (state % CORES as u64) as usize;
        let addr = match state >> 8 & 3 {
            0 => 0x10000 + (state >> 16 & 7) * 64, // read-shared pool
            1 => 0x20000 + (state >> 16 & 3) * 64, // write-shared pool
            _ => 0x80000 + core as u64 * 0x1000 + (state >> 16 & 15) * 64,
        };
        out.push(MemAccess {
            core: CoreId::new(core),
            pc: Pc::new(0x400000 + (state >> 24 & 63) * 4),
            addr: Addr::new(addr),
            kind: if state >> 8 & 3 == 1 || state & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            instr_gap: (1 + (state >> 32 & 7)) as u32,
        });
    }
    out
}

/// Serializes the sample trace in `format`'s own encoding.
fn sample_bytes(format: IngestFormat) -> Vec<u8> {
    let mut bytes = Vec::new();
    match format {
        IngestFormat::ChampsimCsv => {
            export_champsim_csv(VecSource::new(sample_trace()), &mut bytes).expect("export csv");
        }
        IngestFormat::Binary => {
            write_binary_trace(VecSource::new(sample_trace()), &mut bytes).expect("export llcb");
        }
        IngestFormat::Cachegrind => {
            let mut core = usize::MAX;
            for a in sample_trace() {
                if a.core.index() != core {
                    core = a.core.index();
                    bytes.extend_from_slice(format!("T {core}\n").as_bytes());
                }
                bytes.extend_from_slice(format!("I  {:08x},4\n", a.pc.raw()).as_bytes());
                let op = if a.kind == AccessKind::Write {
                    'S'
                } else {
                    'L'
                };
                bytes.extend_from_slice(format!(" {op} {:08x},8\n", a.addr.raw()).as_bytes());
            }
        }
    }
    bytes
}

/// Opens `bytes` through a [`CorruptingReader`] applying `plan` and
/// drains the parser. Returns the records it produced and the parked
/// error, if any. Any panic fails the calling test.
fn drain(
    format: IngestFormat,
    bytes: &[u8],
    plan: &FaultPlan,
) -> (Vec<MemAccess>, Option<TraceError>) {
    let reader = CorruptingReader::new(bytes, plan);
    let mut source = match IngestSource::open(format, reader, CORES) {
        Ok(s) => s,
        // Eager header validation (LLCB) rejecting a corrupt header is
        // exactly the typed failure the sweep is after.
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut records = Vec::new();
    while let Some(a) = source.next_access() {
        assert!(
            a.core.index() < CORES,
            "{format}: produced an access on core {} past the limit {CORES}",
            a.core.index()
        );
        records.push(a);
    }
    (records, source.take_error())
}

#[test]
fn clean_samples_decode_fully() {
    let want = sample_trace().len();
    for format in IngestFormat::ALL {
        let bytes = sample_bytes(format);
        let (records, err) = drain(format, &bytes, &FaultPlan::new());
        assert!(err.is_none(), "{format}: clean sample errored: {err:?}");
        assert_eq!(records.len(), want, "{format}: clean sample lost records");
    }
}

#[test]
fn bit_flip_sweep_never_panics() {
    for format in IngestFormat::ALL {
        let bytes = sample_bytes(format);
        for seed in 0..96u64 {
            let plan = FaultPlan::random_bit_flips(seed, bytes.len() as u64, 3);
            // A flip may corrupt a record (typed error), mutate it into a
            // different valid one, or hit an ignored field; all that is
            // required is a non-panicking drain with the core limit held.
            let (_, _) = drain(format, &bytes, &plan);
        }
    }
}

#[test]
fn truncation_sweep_never_panics() {
    for format in IngestFormat::ALL {
        let bytes = sample_bytes(format);
        let clean = drain(format, &bytes, &FaultPlan::new()).0.len();
        for cut in 0..bytes.len() as u64 {
            let plan = FaultPlan::new().with(Fault::TruncateAt { offset: cut });
            let (records, err) = drain(format, &bytes, &plan);
            assert!(
                records.len() <= clean,
                "{format}: truncation at {cut} grew the trace"
            );
            // Text formats cut exactly on a line boundary legitimately
            // decode as a shorter trace; any other outcome must carry a
            // typed error once records were lost.
            if format == IngestFormat::Binary && (cut as usize) < bytes.len() {
                let e = err.unwrap_or_else(|| {
                    panic!(
                        "llcb: truncation at {cut} of {} went unnoticed",
                        bytes.len()
                    )
                });
                assert!(
                    matches!(
                        e,
                        TraceError::Truncated { .. } | TraceError::TruncatedHeader { .. }
                    ),
                    "llcb: truncation at {cut} surfaced as {e:?}"
                );
            }
        }
    }
}

/// The LLCB header's record count is validated against the actual body:
/// an overlong declaration (count far past the payload) is a truncation
/// error, not an attempt to allocate or read past the end.
#[test]
fn llcb_overlong_declared_count_is_a_typed_error() {
    let mut bytes = sample_bytes(IngestFormat::Binary);
    let declared = u64::MAX / LLCB_RECORD_BYTES as u64;
    bytes[8..16].copy_from_slice(&declared.to_le_bytes());
    let (records, err) = drain(IngestFormat::Binary, &bytes, &FaultPlan::new());
    assert_eq!(
        records.len(),
        sample_trace().len(),
        "valid prefix still decodes"
    );
    assert!(
        matches!(err, Some(TraceError::Truncated { .. })),
        "overlong count surfaced as {err:?}"
    );
}

#[test]
fn llcb_corrupt_magic_version_core_and_kind_are_typed_errors() {
    let good = sample_bytes(IngestFormat::Binary);

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    let (_, err) = drain(IngestFormat::Binary, &bad_magic, &FaultPlan::new());
    assert!(
        matches!(err, Some(TraceError::BadMagic { .. })),
        "got {err:?}"
    );

    let mut bad_version = good.clone();
    bad_version[4..6].copy_from_slice(&0x7fffu16.to_le_bytes());
    let (_, err) = drain(IngestFormat::Binary, &bad_version, &FaultPlan::new());
    assert!(
        matches!(
            err,
            Some(TraceError::UnsupportedVersion { version: 0x7fff })
        ),
        "got {err:?}"
    );

    let mut bad_core = good.clone();
    bad_core[LLCB_HEADER_BYTES] = 200; // first record's core byte
    let (records, err) = drain(IngestFormat::Binary, &bad_core, &FaultPlan::new());
    assert!(
        records.is_empty(),
        "record with core 200 must not be emitted"
    );
    assert!(
        matches!(err, Some(TraceError::CoreOutOfRange { core: 200, .. })),
        "got {err:?}"
    );

    let mut bad_kind = good;
    bad_kind[LLCB_HEADER_BYTES + 1] = 7; // first record's kind byte
    let (_, err) = drain(IngestFormat::Binary, &bad_kind, &FaultPlan::new());
    assert!(
        matches!(err, Some(TraceError::BadKind { kind: 7, .. })),
        "got {err:?}"
    );
}

#[test]
fn champsim_corrupt_rows_are_typed_errors() {
    let cases: [(&str, &str); 5] = [
        ("instr,core,pc,addr,kind\n10,0,4f0,8000", "missing field"),
        (
            "instr,core,pc,addr,kind\n10,0,4f0,8000,R,extra,extra",
            "overlong row",
        ),
        ("instr,core,pc,addr,kind\n10,0,zzzz,8000,R", "non-hex pc"),
        (
            "instr,core,pc,addr,kind\n99999999999999999999999999,0,4f0,8000,R",
            "overflowing instruction count",
        ),
        ("instr,core,pc,addr,kind\n10,0,4f0,8000,Q", "unknown kind"),
    ];
    for (input, what) in cases {
        let (records, err) = drain(
            IngestFormat::ChampsimCsv,
            input.as_bytes(),
            &FaultPlan::new(),
        );
        assert!(records.is_empty(), "{what}: row was emitted anyway");
        assert!(
            matches!(
                err,
                Some(TraceError::MalformedRecord {
                    format: "champsim-csv",
                    ..
                })
            ),
            "{what}: surfaced as {err:?}"
        );
    }
    let (records, err) = drain(
        IngestFormat::ChampsimCsv,
        b"instr,core,pc,addr,kind\n10,99,4f0,8000,R\n",
        &FaultPlan::new(),
    );
    assert!(records.is_empty());
    assert!(
        matches!(err, Some(TraceError::CoreOutOfRange { core: 99, .. })),
        "out-of-range core surfaced as {err:?}"
    );
}

#[test]
fn cachegrind_corrupt_lines_are_typed_errors() {
    let cases: [(&str, &str); 4] = [
        ("I zzzz,4\n", "non-hex pc"),
        (" L 1000\n", "missing size"),
        ("Q 1000,4\n", "unknown opcode"),
        ("T not-a-core\n", "non-numeric core"),
    ];
    for (input, what) in cases {
        let (records, err) = drain(
            IngestFormat::Cachegrind,
            input.as_bytes(),
            &FaultPlan::new(),
        );
        assert!(records.is_empty(), "{what}: line was emitted anyway");
        assert!(
            matches!(
                err,
                Some(TraceError::MalformedRecord {
                    format: "cachegrind",
                    ..
                })
            ),
            "{what}: surfaced as {err:?}"
        );
    }
    let (records, err) = drain(
        IngestFormat::Cachegrind,
        b"T 31\n L 1000,8\n",
        &FaultPlan::new(),
    );
    assert!(records.is_empty());
    assert!(
        matches!(err, Some(TraceError::CoreOutOfRange { core: 31, .. })),
        "core past the limit surfaced as {err:?}"
    );
}

/// Writes `sample_trace()` through a [`FaultInjectingSource`] applying
/// `fault`: the source still declares the clean length.
fn write_faulty(fault: Fault) -> Result<u64, TraceError> {
    let faulty = FaultInjectingSource::new(
        VecSource::new(sample_trace()),
        &FaultPlan::new().with(fault),
    );
    write_binary_trace(faulty, Vec::new())
}

#[test]
fn duplicate_record_trips_writer_overflow() {
    let declared = sample_trace().len() as u64;
    let err = write_faulty(Fault::DuplicateRecord { index: 2 }).expect_err("overflow");
    assert!(
        matches!(err, TraceError::RecordOverflow { declared: d } if d == declared),
        "duplicate surfaced as {err:?}"
    );
}

#[test]
fn dropped_record_trips_count_mismatch() {
    let declared = sample_trace().len() as u64;
    for index in [0, 42, declared - 1] {
        let err = write_faulty(Fault::DropRecord { index }).expect_err("mismatch");
        assert!(
            matches!(
                err,
                TraceError::CountMismatch { declared: d, written: w }
                    if d == declared && w == declared - 1
            ),
            "drop at {index} surfaced as {err:?}"
        );
    }
}

#[test]
fn write_binary_trace_propagates_sink_errors() {
    struct FailingSink {
        budget: usize,
    }
    impl std::io::Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget < buf.len() {
                return Err(std::io::ErrorKind::StorageFull.into());
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // The budget covers the header and one record; the second record
    // hits the sink error, with and without a length hint.
    let budget = LLCB_HEADER_BYTES + LLCB_RECORD_BYTES;
    let streamed = write_binary_trace(VecSource::new(sample_trace()), FailingSink { budget });
    let csv = sample_bytes(IngestFormat::ChampsimCsv);
    let unhinted =
        IngestSource::open(IngestFormat::ChampsimCsv, csv.as_slice(), CORES).expect("open csv");
    assert_eq!(unhinted.len_hint(), None);
    let buffered = write_binary_trace(unhinted, FailingSink { budget });
    for r in [streamed, buffered] {
        assert!(
            matches!(r, Err(TraceError::Io(ref e)) if e.kind() == std::io::ErrorKind::StorageFull),
            "sink failure surfaced as {r:?}"
        );
    }
}
