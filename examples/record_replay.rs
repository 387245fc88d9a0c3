//! Record an app's LLC reference stream into the persistent
//! content-addressed store, prove that a *fresh process* replays it from
//! disk without re-simulating, and confirm the disk-restored stream is
//! bit-identical to the live generator.
//!
//! ```text
//! cargo run --release --example record_replay [app] [store-dir]
//! ```
//!
//! Run it twice: the first run records and persists the stream; the
//! second run (a genuinely new process) starts from the `.llcs` file —
//! the same mechanism behind `repro serve`'s stream store.

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{replay_kind, StreamCache, StreamKey, WorkloadId};
use sharing_aware_llc::trace::{StreamAccess, StreamStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let what = args.next().unwrap_or_else(|| "ferret".into());
    let dir = args.next().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("sharing-aware-llc-store")
            .display()
            .to_string()
    });
    let app = App::parse(&what).unwrap_or_else(|| panic!("unknown app '{what}'"));

    let cfg = HierarchyConfig {
        cores: 8,
        l1: CacheConfig::from_kib(16, 4)?,
        l2: None,
        llc: CacheConfig::from_kib(512, 16)?,
        inclusion: Inclusion::NonInclusive,
    };
    let key = StreamKey {
        workload: WorkloadId::App(app),
        cores: cfg.cores,
        scale: Scale::Tiny,
        config: cfg,
    };
    let store = StreamStore::open(&dir)?;
    let path = store.path_for(key.fingerprint());
    println!("stream key fingerprint : {:016x}", key.fingerprint());
    println!("persistent store entry : {}", path.display());

    // Phase 1 — a store-backed cache. The first process to ask records
    // the stream and persists it; every later process (re-run this
    // example!) gets a disk hit instead of a simulation.
    let cache = StreamCache::with_store(store.clone(), None);
    let stream = cache.get_or_record(key, || app.workload(cfg.cores, Scale::Tiny))?;
    let stats = cache.stats();
    if stats.disk_hits > 0 {
        println!(
            "loaded {} accesses from disk (recorded by an earlier process)",
            stream.len()
        );
    } else {
        println!(
            "recorded {} accesses ({} bytes on disk)",
            stream.len(),
            std::fs::metadata(&path)?.len()
        );
    }

    // Phase 2 — a "restarted process": a brand-new cache over the same
    // directory. It must serve the stream from disk, not re-record.
    drop(cache);
    let fresh = StreamCache::with_store(store, None);
    let restored = fresh.get_or_record(key, || app.workload(cfg.cores, Scale::Tiny))?;
    let fresh_stats = fresh.stats();
    assert_eq!(fresh_stats.misses, 0, "a fresh cache must not re-record");
    assert_eq!(fresh_stats.disk_hits, 1, "the stream comes from the store");
    assert_eq!(
        fresh_stats.view_loads, 1,
        "the disk hit is served as a zero-copy view"
    );
    assert!(
        restored.accesses().eq(stream.accesses()),
        "the disk copy replays the recording, record for record"
    );
    assert_eq!(
        restored.upgrades(),
        stream.upgrades(),
        "upgrade events survive the round trip"
    );
    println!("fresh cache restored the stream from disk (zero-copy view) without simulating ✓");

    // Phase 3 — the disk-restored stream replays bit-identically to
    // simulating the live generator.
    let live = simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || app.workload(cfg.cores, Scale::Tiny),
        vec![],
    )?;
    let replayed = replay_kind(&cfg, PolicyKind::Lru, &restored, vec![])?;
    println!("live run   : {}", live.llc);
    println!("replay run : {}", replayed.llc);
    assert_eq!(live.llc, replayed.llc, "replay must be bit-identical");
    println!("replay from the persistent store is bit-identical to the live generator ✓");
    Ok(())
}
