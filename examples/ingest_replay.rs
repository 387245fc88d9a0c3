//! Ingest a foreign trace (the checked-in ChampSim-style CSV sample),
//! record it through the normal LLC-free recording kernel, and replay
//! every realistic policy over the result — the library form of
//! `repro ingest examples/traces/sample.csv --replay`.
//!
//! ```text
//! cargo run --release --example ingest_replay [trace-file]
//! ```
//!
//! The walkthrough proves the tentpole property of the ingest layer:
//! once a foreign trace has passed through
//! [`record_stream`](sharing_aware_llc::sharing::record_stream), it is
//! indistinguishable from a recorded synthetic workload — the same
//! `.llcs` bytes, the same replay kernel, the same characterization.
//! It also round-trips the stream through the CSV exporter and asserts
//! the re-ingested copy replays bit-identically.

use sharing_aware_llc::ingest::{
    export_champsim_csv, ingest_fingerprint, IngestFormat, IngestSource,
};
use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{record_stream, replay_kind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/traces/sample.csv".into());
    let path = std::path::PathBuf::from(path);
    let raw = std::fs::read(&path)?;
    let format = IngestFormat::detect(&path)
        .ok_or_else(|| format!("cannot detect trace format of {}", path.display()))?;

    // Phase 1 — decode the foreign trace with the hardened parser for
    // its format and record it into a replayable stream.
    let mut cfg = HierarchyConfig::tiny();
    cfg.cores = 4;
    let source = IngestSource::open(format, raw.as_slice(), cfg.cores)?;
    let stream = record_stream(&cfg, source)?;
    let fp = ingest_fingerprint(format, &raw, cfg.cores, cfg.recording_fingerprint());
    println!("ingested {} as {format}", path.display());
    println!(
        "  {} accesses, {} upgrades, {} instructions, fingerprint {fp:016x}",
        stream.len(),
        stream.upgrades.len(),
        stream.instructions
    );

    // Phase 2 — replay the realistic policies over the ingested stream,
    // exactly as the experiment pipeline replays recorded workloads.
    println!(
        "\n  {:<10} {:>10} {:>10} {:>8}",
        "policy", "hits", "misses", "mpki"
    );
    for kind in PolicyKind::REALISTIC {
        let r = replay_kind(&cfg, kind, &stream, vec![])?;
        println!(
            "  {:<10} {:>10} {:>10} {:>8.2}",
            kind.label(),
            r.llc.hits,
            r.llc.misses(),
            r.llc.misses() as f64 * 1000.0 / r.instructions.max(1) as f64,
        );
    }

    // Phase 3 — round-trip: re-export the foreign trace as ChampSim CSV,
    // ingest the export, and verify recording it reproduces the exact
    // same stream (the acceptance property of the ingest layer).
    let mut csv = Vec::new();
    export_champsim_csv(
        IngestSource::open(format, raw.as_slice(), cfg.cores)?,
        &mut csv,
    )?;
    let reingested = record_stream(
        &cfg,
        IngestSource::open(IngestFormat::ChampsimCsv, csv.as_slice(), cfg.cores)?,
    )?;
    assert_eq!(
        reingested.blocks, stream.blocks,
        "blocks survive the round-trip"
    );
    assert_eq!(
        reingested.kinds, stream.kinds,
        "kinds survive the round-trip"
    );
    assert_eq!(
        reingested.instructions, stream.instructions,
        "instruction accounting survives the round-trip"
    );
    println!("\nround-trip through CSV export re-recorded a bit-identical stream");
    Ok(())
}
