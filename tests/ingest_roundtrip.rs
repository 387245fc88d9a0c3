//! Round-trip property: a synthetic trace exported to a foreign format
//! and re-ingested must record to a bit-identical `.llcs` stream and
//! replay to bit-identical stats — the acceptance criterion of the
//! ingest layer. Checked for both textual (ChampSim CSV) and binary
//! (LLCB) interchange formats on random multi-threaded traces.

use proptest::prelude::*;
use sharing_aware_llc::ingest::{
    export_champsim_csv, write_binary_trace, IngestFormat, IngestSource,
};
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{record_stream, replay_kind};
use sharing_aware_llc::trace::VecSource;

fn tiny_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(1, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(4, 4).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

/// Random multi-threaded traces over a small block universe so sets
/// conflict, lines are shared, and the private levels filter accesses.
fn trace_strategy(len: usize) -> impl Strategy<Value = Vec<MemAccess>> {
    prop::collection::vec(
        (0usize..4, 0u64..96, prop::bool::ANY, 0u64..8, 0u32..5),
        1..len,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(core, block, write, pc, gap)| MemAccess {
                core: CoreId::new(core),
                pc: Pc::new(0x400 + pc * 4),
                addr: Addr::new(block * 64),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                instr_gap: 1 + gap,
            })
            .collect()
    })
}

/// Exports `trace` in `format`, re-ingests the bytes, and returns the
/// recorded stream of the ingested copy.
fn reingest(
    cfg: &HierarchyConfig,
    trace: &[MemAccess],
    format: IngestFormat,
) -> sharing_aware_llc::trace::RecordedStream {
    let mut bytes = Vec::new();
    match format {
        IngestFormat::ChampsimCsv => {
            export_champsim_csv(VecSource::new(trace.to_vec()), &mut bytes).expect("export csv")
        }
        IngestFormat::Binary => {
            write_binary_trace(VecSource::new(trace.to_vec()), &mut bytes).expect("export llcb")
        }
        IngestFormat::Cachegrind => unreachable!("no cachegrind exporter"),
    };
    let source =
        IngestSource::open(format, bytes.as_slice(), cfg.cores).expect("open ingested bytes");
    record_stream(cfg, source).expect("record ingested copy")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Export → ingest → record reproduces the exact stream the
    /// in-process recorder produces, for both interchange formats, and
    /// the replayed stats are bit-identical.
    #[test]
    fn export_ingest_record_is_bit_identical(trace in trace_strategy(600)) {
        let cfg = tiny_cfg();
        let native = record_stream(&cfg, VecSource::new(trace.clone())).expect("record native");
        for format in [IngestFormat::ChampsimCsv, IngestFormat::Binary] {
            let ingested = reingest(&cfg, &trace, format);
            prop_assert_eq!(
                &ingested, &native,
                "{} round-trip diverged from the native recording", format
            );
            // Same stream bytes in, same replay out — assert it anyway on
            // the replayed stats so a stream-equality regression cannot
            // hide behind a lenient PartialEq.
            let a = replay_kind(&cfg, PolicyKind::Lru, &native, vec![]).expect("replay native");
            let b = replay_kind(&cfg, PolicyKind::Lru, &ingested, vec![]).expect("replay ingested");
            prop_assert_eq!(a.llc, b.llc);
            prop_assert_eq!(a.instructions, b.instructions);
            prop_assert_eq!(a.trace_accesses, b.trace_accesses);
        }
    }
}

/// The checked-in `sample.llcb` is the LLCB encoding of `sample.csv`:
/// decoding the CSV and re-encoding it must reproduce the file byte for
/// byte, so a change to the LLCB writer cannot silently alter the format.
#[test]
fn sample_csv_reencodes_to_the_checked_in_llcb() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/traces");
    let csv = std::fs::read(format!("{dir}/sample.csv")).expect("read sample.csv");
    let golden = std::fs::read(format!("{dir}/sample.llcb")).expect("read sample.llcb");
    let source =
        IngestSource::open(IngestFormat::ChampsimCsv, csv.as_slice(), 4).expect("open csv");
    let mut bytes = Vec::new();
    write_binary_trace(source, &mut bytes).expect("encode llcb");
    assert!(bytes == golden, "LLCB re-encoding of sample.csv changed");
}
